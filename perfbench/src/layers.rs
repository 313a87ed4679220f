//! The traced run's per-layer numbers.
//!
//! Three sources, none of them new instrumentation inside the program:
//! client-side timing of every wire op and job (as spans), deltas of the
//! server's own `metrics` op over the traced phase, and an in-process replay
//! of the workload's inputs through each crate's public entry points.

use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::Run;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlac_atpg::{CancelToken, FaultPlan, TraceSink, Verification};
use wlac_persist::{decode_snapshot, JournalRecord, JournalWriter};
use wlac_portfolio::{Engine, EngineStats, Portfolio, PortfolioConfig, RaceEventKind, WarmStart};
use wlac_server::Json;
use wlac_service::{design_hash, ServiceConfig, VerificationService};
use wlac_telemetry::Tracer;

/// Why `telemetry.trace_overhead_ratio` is 1, printed with every traced run.
pub const OVERHEAD_NOTE: &str = "tracing overhead: none; a traced run's timed \
    phase does the same work as an untraced run's (the server is not instrumented; \
    spans are built, metrics fetched and the replay run outside the timed window), \
    so telemetry.trace_overhead_ratio is 1 by construction";

/// Per-layer metrics: name and unit. BENCHMARK.json lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.decode_ms_per_mb", "ms/MB"),
    ("server.register_ms", "ms"),
    ("server.submit_ms_per_job", "ms"),
    ("server.frames_per_job", "count"),
    ("frontend.compile_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.busy_ms_hit", "ms"),
    ("service.busy_ms_miss", "ms"),
    ("service.submit_us_per_job", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.engines_per_job", "count"),
    ("portfolio.race_ms", "ms"),
    ("portfolio.cancel_tail_ms", "ms"),
    ("portfolio.win_share.atpg", "ratio"),
    ("portfolio.win_share.sat_bmc", "ratio"),
    ("portfolio.win_share.random_sim", "ratio"),
    ("portfolio.useful_engine_ratio", "ratio"),
    ("core.atpg_ms", "ms"),
    ("core.implication_ms", "ms"),
    ("core.justification_ms", "ms"),
    ("core.decision_ms", "ms"),
    ("core.datapath_ms", "ms"),
    ("core.sat_leaf_ms", "ms"),
    ("core.backtrack_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.gate_evals", "count"),
    ("core.decisions", "count"),
    ("core.backtracks", "count"),
    ("core.ns_per_gate_eval", "ns"),
    ("modsolve.arith_calls", "count"),
    ("modsolve.ns_per_arith_call", "ns"),
    ("modsolve.island_cache_hit_ratio", "ratio"),
    ("baselines.bmc_ms", "ms"),
    ("baselines.sat_conflicts", "count"),
    ("baselines.sat_propagations", "count"),
    ("baselines.random_sim_ms", "ms"),
    ("persist.journal_open_ms", "ms"),
    ("persist.append_ms", "ms"),
    ("persist.fsync_ms", "ms"),
    ("persist.bytes_per_append", "bytes"),
    ("persist.boot_ms", "ms"),
    ("persist.snapshot_decode_ms_per_mb", "ms/MB"),
    ("telemetry.trace_overhead_ratio", "ratio"),
    ("trace.race_other_ms", "ms"),
    ("trace.engine_other_ms", "ms"),
];

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Computes every per-layer metric and writes the run's spans to
/// `trace_path`. Returns the metrics in [`PER_LAYER`] order.
pub fn per_layer(
    run: &Run,
    work: &std::path::Path,
    trace_path: &std::path::Path,
) -> Result<Vec<f64>, String> {
    let phase = &run.phase;
    let d = |key: &str| phase.delta.get(key).copied().unwrap_or(0.0);
    let jobs = phase.jobs.len() as f64;
    let mut log = SpanLog::default();

    // Source 1: client spans. Each job: submit round trip, then waiting,
    // then service busy time (its `wall_ms`, dequeue to result). Waiting is
    // what the latency leaves after the other two, so the parts tile the
    // job's span and its own remainder (`other`) is zero by construction.
    for job in &phase.jobs {
        let root = log.push("job", job.sent_ns, job.done_ns, None, job.id);
        log.push(
            "server.submit",
            job.sent_ns,
            job.accepted_ns,
            Some(root),
            job.id,
        );
        let busy_start = job
            .done_ns
            .saturating_sub((job.wall_ms * 1e6) as u64)
            .max(job.accepted_ns);
        log.push(
            "service.queue_wait",
            job.accepted_ns,
            busy_start,
            Some(root),
            job.id,
        );
        log.push("service.busy", busy_start, job.done_ns, Some(root), job.id);
    }
    let (hits, misses): (Vec<_>, Vec<_>) = phase.jobs.iter().partition(|j| j.from_cache);

    // Source 3: in-process replay.
    let replay = &run.replay;
    let frames: Vec<&String> = replay
        .setup_frames
        .iter()
        .chain(&phase.frames_sent)
        .collect();
    let (bytes, t) = (
        frames.iter().map(|f| f.len()).sum::<usize>(),
        Instant::now(),
    );
    for frame in &frames {
        std::hint::black_box(Json::parse(frame).map_err(|e| e.to_string())?);
    }
    let decode_ms_per_mb = ratio(ms(t.elapsed()), bytes as f64 / 1e6);
    let compile_ms = mean(replay.sources.iter().map(|s| {
        let t = Instant::now();
        std::hint::black_box(wlac_frontend::compile(s).ok());
        ms(t.elapsed())
    }));
    let (snap_bytes, t) = (
        replay.snapshots.iter().map(Vec::len).sum::<usize>(),
        Instant::now(),
    );
    for s in &replay.snapshots {
        std::hint::black_box(decode_snapshot(s).map_err(|e| e.to_string())?);
    }
    let snapshot_decode = ratio(ms(t.elapsed()), snap_bytes as f64 / 1e6);
    let submit_us = submit_replay(&replay.batches);
    let races = race_replay(&replay.raced, &mut log);
    let (opens, appends) = journal_replay(&replay.raced, &races.harvests, work)?;
    let bmc: Vec<_> = replay
        .raced
        .iter()
        .map(|v| {
            let (report, _) = wlac_baselines::bounded_model_check_learning(
                v,
                PortfolioConfig::default().checker.max_frames,
                PortfolioConfig::default().bmc_decision_budget,
                &CancelToken::new(),
                &[],
            );
            report
        })
        .collect();
    std::fs::write(trace_path, log.to_json()).map_err(|e| format!("trace file: {e}"))?;

    // Source 2: the server's own counters over the traced phase.
    let raced = d("portfolio_races_total");
    let atpg_ns: f64 = races.atpg.iter().map(|s| s.elapsed.as_nanos() as f64).sum();
    let gate_evals: f64 = races
        .atpg
        .iter()
        .map(|s| s.implication.gate_evaluations as f64)
        .sum();
    let arith: f64 = races.atpg.iter().map(|s| s.arithmetic_calls as f64).sum();
    let n_races = races.walls.len() as f64;
    let phase_ms = |f: fn(&wlac_atpg::PhaseNanos) -> u64| {
        ratio(
            races.atpg.iter().map(|s| f(&s.phases) as f64).sum::<f64>() / 1e6,
            n_races,
        )
    };
    let island_hits: f64 = races.atpg.iter().map(|s| s.island_cache_hits as f64).sum();
    let island_all: f64 = races
        .atpg
        .iter()
        .map(|s| (s.island_cache_hits + s.island_cache_misses) as f64)
        .sum();
    let values: [f64; PER_LAYER.len()] = [
        decode_ms_per_mb,
        mean(replay.register_ms.iter().copied()),
        ratio(
            phase
                .jobs
                .iter()
                .map(|j| (j.accepted_ns - j.sent_ns) as f64 / 1e6 / j.batch_jobs.max(1) as f64)
                .sum(),
            jobs,
        ),
        ratio(phase.frames as f64, jobs),
        compile_ms,
        mean(
            phase
                .jobs
                .iter()
                .map(|j| (j.latency_ms() - j.wall_ms).max(0.0)),
        ),
        mean(hits.iter().map(|j| j.wall_ms)),
        mean(misses.iter().map(|j| j.wall_ms)),
        submit_us,
        ratio(hits.len() as f64, jobs),
        mean(phase.jobs.iter().map(|j| j.engines as f64)),
        ratio(
            d("portfolio_race_wall_ns_sum") / 1e6,
            d("portfolio_race_wall_ns_count"),
        ),
        mean(races.cancel_tails.iter().copied()),
        ratio(d("portfolio_wins_atpg_total"), raced),
        ratio(d("portfolio_wins_sat_bmc_total"), raced),
        ratio(d("portfolio_wins_random_sim_total"), raced),
        mean(races.useful.iter().copied()),
        ratio(atpg_ns / 1e6, n_races),
        phase_ms(|p| p.implication),
        phase_ms(|p| p.justification),
        phase_ms(|p| p.decision),
        phase_ms(|p| p.datapath),
        phase_ms(|p| p.sat_leaf),
        phase_ms(|p| p.backtrack),
        phase_ms(|p| p.other),
        ratio(d("core_gate_evaluations_total"), raced),
        ratio(d("core_decisions_total"), raced),
        ratio(d("core_backtracks_total"), raced),
        ratio(atpg_ns, gate_evals),
        ratio(arith, n_races),
        ratio(
            races.atpg.iter().map(|s| s.datapath_nanos as f64).sum(),
            arith,
        ),
        ratio(island_hits, island_all),
        mean(bmc.iter().map(|r| ms(r.elapsed))),
        mean(bmc.iter().map(|r| r.sat.conflicts as f64)),
        mean(bmc.iter().map(|r| r.sat.propagations as f64)),
        ratio(d("portfolio_engine_random_sim_wall_ns_sum") / 1e6, raced),
        mean(opens.iter().copied()),
        mean(appends.iter().copied()),
        ratio(
            d("persist_journal_fsync_ns_sum") / 1e6,
            d("persist_journal_appends_total"),
        ),
        ratio(
            d("persist_journal_bytes_written_total"),
            d("persist_journal_appends_total"),
        ),
        median(&replay.boot_ms),
        snapshot_decode,
        1.0, // see OVERHEAD_NOTE
        mean(races.race_other.iter().copied()),
        mean(races.engine_other.iter().copied()),
    ];
    Ok(values.to_vec())
}

/// `VerificationService::submit_batch` per job, plus the netlist clone the
/// server's `parse_job` makes for every job. The service races nothing
/// heavier than one single-cycle random run, so its worker stays idle.
fn submit_replay(batches: &[Vec<Verification>]) -> f64 {
    let mut config = ServiceConfig {
        workers: 1,
        predict: false,
        ..ServiceConfig::default()
    };
    config.portfolio.engines = vec![Engine::RandomSim];
    config.portfolio.random_runs = 1;
    config.portfolio.random_cycles = 1;
    let service = VerificationService::new(config);
    let (mut total, mut jobs) = (Duration::ZERO, 0usize);
    for batch in batches {
        let t = Instant::now();
        let cloned: Vec<Verification> = batch
            .iter()
            .map(|v| Verification {
                netlist: v.netlist.clone(),
                property: v.property.clone(),
                environment: v.environment.clone(),
            })
            .collect();
        let id = service.submit_batch(cloned);
        total += t.elapsed();
        jobs += batch.len();
        service.wait(id);
    }
    ratio(total.as_secs_f64() * 1e6, jobs as f64)
}

struct Races {
    walls: Vec<Duration>,
    /// Race time no engine span covers: dispatch and the supervisor's end.
    race_other: Vec<f64>,
    /// ATPG engine time outside the search's own phase attribution.
    engine_other: Vec<f64>,
    cancel_tails: Vec<f64>,
    useful: Vec<f64>,
    atpg: Vec<wlac_atpg::CheckStats>,
    harvests: Vec<wlac_portfolio::Harvest>,
}

/// `Portfolio::race_warm` on every raced job with search tracing on, so each
/// ATPG run's `PhaseNanos` nest under its engine span.
fn race_replay(raced: &[Verification], log: &mut SpanLog) -> Races {
    let mut config = PortfolioConfig::default();
    config.checker.trace = true;
    config.checker.trace_sink = TraceSink::to(Arc::new(Tracer::new(1 << 12)));
    let portfolio = Portfolio::new(config);
    let mut out = Races {
        walls: Vec::new(),
        race_other: Vec::new(),
        engine_other: Vec::new(),
        cancel_tails: Vec::new(),
        useful: Vec::new(),
        atpg: Vec::new(),
        harvests: Vec::new(),
    };
    let base = log.spans.last().map_or(0, |s| s.end_ns);
    let mut cursor = base;
    for (i, v) in raced.iter().enumerate() {
        let job = (1 << 48) | i as u64;
        let (report, harvest) = portfolio.race_warm(v, &WarmStart::new());
        let wall = report.wall_clock.as_nanos() as u64;
        let race = log.push("portfolio.race", cursor, cursor + wall, None, job);
        for run in &report.runs {
            let spawned = report
                .timeline
                .iter()
                .find(|e| e.engine == Some(run.engine) && e.kind == RaceEventKind::Spawned)
                .map_or(0, |e| e.at.as_nanos() as u64);
            let start = cursor + spawned;
            let name = match run.engine {
                Engine::Atpg => "engine.atpg",
                Engine::SatBmc => "engine.sat_bmc",
                Engine::RandomSim => "engine.random_sim",
            };
            let engine = log.push(
                name,
                start,
                start + run.elapsed.as_nanos() as u64,
                Some(race),
                job,
            );
            if let EngineStats::Atpg(stats) = &run.stats {
                let p = &stats.phases;
                let mut at = start;
                for (name, ns) in [
                    ("core.implication", p.implication),
                    ("core.justification", p.justification),
                    ("core.decision", p.decision),
                    ("core.datapath", p.datapath),
                    ("core.sat_leaf", p.sat_leaf),
                    ("core.backtrack", p.backtrack),
                    ("core.other", p.other),
                ] {
                    log.push(name, at, at + ns, Some(engine), job);
                    at += ns;
                }
                out.engine_other.push(log.self_ns(engine) as f64 / 1e6);
                out.atpg.push(stats.clone());
            }
        }
        if let Some(cancel) = report
            .timeline
            .iter()
            .find(|e| e.kind == RaceEventKind::CancelIssued)
        {
            out.cancel_tails
                .push((report.wall_clock.saturating_sub(cancel.at)).as_secs_f64() * 1e3);
        }
        let spent: f64 = report.runs.iter().map(|r| r.elapsed.as_secs_f64()).sum();
        if let Some(winner) = report.winner.and_then(|w| report.run_of(w)) {
            out.useful.push(ratio(winner.elapsed.as_secs_f64(), spent));
        }
        out.race_other.push(log.self_ns(race) as f64 / 1e6);
        cursor += wall;
        out.walls.push(report.wall_clock);
        out.harvests.push(harvest);
    }
    out
}

/// A `JournalWriter` per design appending one record per raced job, with
/// the server's default group commit (fsync every 32nd append of a design).
/// Milliseconds per open (which writes and syncs the header) and per append.
#[allow(clippy::type_complexity)]
fn journal_replay(
    raced: &[Verification],
    harvests: &[wlac_portfolio::Harvest],
    work: &std::path::Path,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let dir =
        crate::procfs::TempDir::fresh(work.join("journal-replay")).map_err(|e| e.to_string())?;
    let mut writers: Vec<(wlac_service::DesignHash, JournalWriter)> = Vec::new();
    let (mut opens, mut times) = (Vec::new(), Vec::new());
    for (v, harvest) in raced.iter().zip(harvests) {
        let design = design_hash(&v.netlist);
        if !writers.iter().any(|(d, _)| *d == design) {
            let path = dir.0.join(wlac_persist::journal_file_name(design));
            let t = Instant::now();
            let (writer, _) =
                JournalWriter::open(&path, design, &v.netlist, 32, FaultPlan::disabled())
                    .map_err(|e| e.to_string())?;
            opens.push(ms(t.elapsed()));
            writers.push((design, writer));
        }
        let writer = &mut writers
            .iter_mut()
            .find(|(d, _)| *d == design)
            .expect("opened")
            .1;
        let record = JournalRecord {
            verdict: None,
            clauses: harvest.clauses.clone(),
            estg_delta: Vec::new(),
            ran: harvest.ran.clone(),
            winner: harvest.winner,
        };
        let t = Instant::now();
        writer.append(&record).map_err(|e| e.to_string())?;
        times.push(ms(t.elapsed()));
    }
    Ok((opens, times))
}
