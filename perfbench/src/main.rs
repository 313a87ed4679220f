//! End-to-end benchmark of the verification service.
//!
//! ```text
//! wlac-perfbench --workload paper_rerun|design_stream --seed N
//!                --seconds S --trace 0|1 --server-bin PATH [--work-dir DIR]
//! ```
//!
//! Spawns real `wlac-server` processes, drives them over loopback, checks
//! every verdict and prints a report whose last line is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. `perfbench/run.py` builds both
//! binaries and passes `--server-bin`; see `perfbench/README.md`.

mod gen;
mod layers;
mod paper;
mod procfs;
mod spans;
mod stats;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;
use workloads::{Ctx, Run};

/// End-to-end metrics: name and unit. BENCHMARK.json lists the same names.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("strong_verdict_ratio", "ratio"),
    ("server_cpu_ms_per_job", "ms"),
    ("server_peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut server_bin, mut work_dir) = (None, PathBuf::from(".bench_build/perfbench-work"));
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir,
    })
}

/// A fixed single-threaded CPU task: its time, next to the steal ticks,
/// shows whether a set of runs was taken on a slower or busier host.
fn host_canary_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wlac-perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    // `run.py` removes this directory by the same name if the process dies.
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("wlac-perfbench: {}: {e}", work.display());
        return 1;
    }
    let ctx = Ctx {
        bin: args.server_bin.clone(),
        pid_file: args.work_dir.join("servers.pid"),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let canary_ms = host_canary_ms();
    let steal = procfs::steal_ticks();
    let outcome = match args.workload.as_str() {
        "paper_rerun" => workloads::paper_rerun(&ctx),
        "design_stream" => workloads::design_stream(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let steal = procfs::steal_ticks() - steal;
    let code = match outcome {
        Ok(run) => report(args, &run, &work, canary_ms, steal),
        Err(e) => {
            eprintln!("wlac-perfbench: {}: {e}", args.workload);
            1
        }
    };
    std::fs::remove_dir_all(&work).ok();
    code
}

fn report(args: &Args, run: &Run, work: &std::path::Path, canary_ms: f64, steal: u64) -> i32 {
    let phase = &run.phase;
    let summary = stats::summarize(&phase.latencies_ms);
    let jobs = phase.jobs.len().max(1) as f64;
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: canary {canary_ms:.1} ms, {steal} steal ticks during the workload, {} cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# setup: {:.4} s ({})", run.setup_s, run.setup_note);
    println!(
        "# measured: {} jobs in {:.2} s; latency samples: {} (one per {}); p50 {:.3} ms, p90 {:.3} ms{}",
        phase.jobs.len(),
        phase.measured_s,
        summary.samples,
        phase.latency_unit,
        summary.p50,
        summary.p90,
        match summary.top {
            Some((p, v)) => format!("; highest percentile with >= 10 samples beyond it: p{p} = {v:.3} ms"),
            None => "; too few samples for a tail percentile".to_string(),
        }
    );
    if phase.latency_unit != "job" {
        let per_job: Vec<f64> = phase.jobs.iter().map(|j| j.latency_ms()).collect();
        let s = stats::summarize(&per_job);
        println!(
            "# per-job latency (context, not a metric): {} samples, p50 {:.3} ms, p90 {:.3} ms",
            s.samples, s.p50, s.p90
        );
    }
    println!(
        "# jobs attempted {}, failed {}; client cpu {:.3} ms per job",
        phase.attempted,
        phase.failed,
        phase.client_cpu_s * 1e3 / jobs
    );
    for p in phase.problems.iter().take(20) {
        eprintln!("wlac-perfbench: WRONG VERDICT: {p}");
    }
    let correct = phase.problems.is_empty();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let trace_path = args
            .work_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        match layers::per_layer(run, work, &trace_path) {
            Ok(values) => {
                println!("# spans: {}", trace_path.display());
                println!("# {}", layers::OVERHEAD_NOTE);
                layers::PER_LAYER
                    .iter()
                    .zip(values)
                    .map(|(&(name, unit), v)| (name, v, unit))
                    .collect()
            }
            Err(e) => {
                eprintln!("wlac-perfbench: traced run: {e}");
                return 1;
            }
        }
    } else {
        std::iter::once(run.setup_s)
            .chain(end_to_end(phase))
            .zip(END_TO_END)
            .map(|(v, &(name, unit))| (name, v, unit))
            .collect()
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("wlac-perfbench: {name} is {v}");
        return 1;
    }
    if phase.attempted == 0 {
        eprintln!("wlac-perfbench: the measured phase attempted no job");
        return 1;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.attempted,
        phase.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// The end-to-end metrics of the measured phase, in [`END_TO_END`] order
/// after `setup_s`.
fn end_to_end(phase: &workloads::Phase) -> [f64; 6] {
    let summary = stats::summarize(&phase.latencies_ms);
    let jobs = phase.jobs.len().max(1) as f64;
    let strong = phase
        .jobs
        .iter()
        .filter(|j| paper::strong(&j.label))
        .count() as f64;
    [
        phase.jobs_per_s(),
        summary.p50,
        summary.p90,
        strong / jobs,
        phase.server_cpu_s * 1e3 / jobs,
        phase.rss_mb,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let json = wire::Value::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.arr(key)
                .unwrap()
                .iter()
                .map(|m| (m.str("name").unwrap().into(), m.str("unit").unwrap().into()))
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(layers::PER_LAYER));
    }
}
