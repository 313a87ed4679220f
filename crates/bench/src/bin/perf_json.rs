//! JSON performance reporter for the implication / datapath / CDCL /
//! portfolio hot paths.
//!
//! Usage:
//!
//! ```text
//! cargo run -p wlac-bench --release --bin perf_json               # print metrics JSON
//! cargo run -p wlac-bench --release --bin perf_json -- --check BENCH_16.json
//! cargo run -p wlac-bench --release --bin perf_json -- --industry01-paper
//! ```
//!
//! Without arguments the reporter runs the paper Small suite through the
//! word-level ATPG checker, a datapath-heavy island workload, a pigeonhole
//! CDCL workload, a portfolio batch, the repeated-batch service workload
//! and a cold-vs-restart-warm workload through the network server (which
//! *asserts* that a server rebooted from its snapshots answers the repeat
//! batch from the persisted verdict cache with identical verdicts), and
//! prints one flat JSON object of metrics. With `--check <baseline>` it
//! additionally loads the committed baseline (the `"after"` object of a
//! `BENCH_*.json` file) and exits non-zero when a latency, wall-clock or
//! allocation metric is more than 3x worse than the baseline, or when a
//! deterministic search counter (gate evaluations, refinements, arithmetic
//! calls) differs from it at all — this is the CI bench smoke gate.
//!
//! The binary installs a counting global allocator so `allocs_per_gate_eval`
//! measures real heap traffic of the implication hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlac_atpg::{AssertionChecker, CheckStats, CheckerOptions, Property, Verification};
use wlac_baselines::{Cnf, Lit};
use wlac_bench::{harness_options, run_case};
use wlac_bv::Bv;
use wlac_circuits::{paper_suite, Scale};
use wlac_netlist::Netlist;
use wlac_portfolio::Portfolio;
use wlac_service::{ServiceConfig, VerificationService};
use wlac_telemetry::{MetricsRegistry, ProgressCell, ProgressHandle};

/// Wraps the system allocator and counts allocation calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// How `--check` compares a metric with the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Informational only.
    Untracked,
    /// Fails when the live value is more than 3x the baseline's (larger =
    /// worse), above a per-kind noise floor.
    Ratio,
    /// A deterministic search-effort counter: fails unless the live value
    /// equals the baseline's, so a change that alters the search is caught
    /// even when it makes no wall-clock difference.
    Exact,
}

/// One named measurement and the way the CI regression gate checks it.
struct Metric {
    name: &'static str,
    value: f64,
    gate: Gate,
}

#[allow(clippy::needless_range_loop)]
fn php_cnf(pigeons: usize, holes: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let p: Vec<Vec<usize>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| cnf.fresh_var()).collect())
        .collect();
    for row in &p {
        cnf.add_clause(row.iter().map(|v| Lit::positive(*v)).collect());
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in i1 + 1..pigeons {
                cnf.add_clause(vec![Lit::negative(p[i1][j]), Lit::negative(p[i2][j])]);
            }
        }
    }
    cnf
}

fn measure_small_suite() -> Vec<Metric> {
    let suite = paper_suite(Scale::Small);
    // Warm up so lazily-initialised runtime structures do not count.
    let _ = run_case(suite.last().expect("non-empty suite"));

    let allocs_before = alloc_calls();
    let start = Instant::now();
    let mut gate_evals = 0u64;
    let mut refinements = 0u64;
    let mut arith_calls = 0u64;
    let mut decisions = 0u64;
    let mut justify_rechecks = 0u64;
    for case in &suite {
        let report = run_case(case);
        gate_evals += report.stats.implication.gate_evaluations;
        refinements += report.stats.implication.refinements;
        arith_calls += report.stats.arithmetic_calls;
        decisions += report.stats.decisions;
        justify_rechecks += report.stats.justify_gates_rechecked;
    }
    let wall = start.elapsed().as_secs_f64();
    let allocs = (alloc_calls() - allocs_before) as f64;
    let evals = gate_evals.max(1) as f64;
    let mut metrics = vec![
        Metric {
            name: "atpg_small_wall_s",
            value: wall,
            gate: Gate::Ratio,
        },
        Metric {
            name: "atpg_gate_evals",
            value: evals,
            gate: Gate::Exact,
        },
        Metric {
            name: "atpg_refinements",
            value: refinements as f64,
            gate: Gate::Exact,
        },
        Metric {
            name: "implication_ns_per_gate_eval",
            value: wall * 1e9 / evals,
            gate: Gate::Ratio,
        },
        Metric {
            name: "allocs_per_gate_eval",
            value: allocs / evals,
            gate: Gate::Ratio,
        },
    ];
    // The Small suite is control-bound (historically zero arithmetic calls);
    // the count is gated exactly like the other search counters, and the
    // dedicated datapath workload below carries the per-call latency gate.
    metrics.push(Metric {
        name: "atpg_arith_calls",
        value: arith_calls as f64,
        gate: Gate::Exact,
    });
    // Unjustified-gate maintenance cost per decision round. A full rescan
    // per decision would put this near the expanded gate count (hundreds to
    // thousands); the dirty worklist keeps it at the size of the changed
    // region.
    metrics.push(Metric {
        name: "justify_rechecks_per_decision",
        value: justify_rechecks as f64 / decisions.max(1) as f64,
        gate: Gate::Ratio,
    });
    metrics
}

/// The Small suite again with a live [`ProgressCell`] attached to every
/// check, mirroring [`measure_small_suite`] run-for-run (same options, one
/// checker per case, warm-up excluded). Probe publication is a branch plus
/// a handful of relaxed atomics on a pre-allocated cell, so the probed
/// per-gate-eval time and allocation figures are tracked against the same
/// regression thresholds as the unprobed run — if publishing ever grows a
/// lock or a heap allocation, `probed_allocs_per_gate_eval` moves off its
/// deterministic baseline and the gate fails.
fn measure_probed_small_suite(unprobed_ns_per_gate_eval: f64) -> Vec<Metric> {
    let suite = paper_suite(Scale::Small);
    let cell = Arc::new(ProgressCell::new());
    let probed_check = |verification: &Verification| {
        let options = CheckerOptions {
            progress: ProgressHandle::to(cell.clone()),
            ..harness_options()
        };
        AssertionChecker::new(options).check(verification)
    };
    // Warm up exactly like the unprobed measurement.
    let _ = probed_check(&suite.last().expect("non-empty suite").verification);

    let allocs_before = alloc_calls();
    let start = Instant::now();
    let mut gate_evals = 0u64;
    for case in &suite {
        let report = probed_check(&case.verification);
        gate_evals += report.stats.implication.gate_evaluations;
    }
    let wall = start.elapsed().as_secs_f64();
    let allocs = (alloc_calls() - allocs_before) as f64;
    let evals = gate_evals.max(1) as f64;
    let probe = cell.snapshot();
    assert!(
        probe.probes > 0,
        "probed suite must publish at least one progress probe"
    );
    let ns_per_eval = wall * 1e9 / evals;
    vec![
        Metric {
            name: "probed_implication_ns_per_gate_eval",
            value: ns_per_eval,
            gate: Gate::Ratio,
        },
        Metric {
            name: "probed_allocs_per_gate_eval",
            value: allocs / evals,
            gate: Gate::Ratio,
        },
        // Probed / unprobed hot-path latency; ~1.0 when publication is free.
        Metric {
            name: "probe_overhead_ratio",
            value: ns_per_eval / unprobed_ns_per_gate_eval.max(1e-9),
            gate: Gate::Untracked,
        },
        Metric {
            name: "probe_publications",
            value: probe.probes as f64,
            gate: Gate::Untracked,
        },
    ]
}

/// A datapath-heavy design: a 24-bit adder chain folded into `2·(a+…+f)`
/// compared against an odd constant (every island solve is an infeasibility
/// proof), guarded by four OR-pair control constraints so one check walks
/// dozens of control leaves, each triggering a modular island solve.
fn datapath_bench_verification() -> Verification {
    let mut nl = Netlist::new("datapath_bench");
    let width = 24;
    let a = nl.input("a", width);
    let b = nl.input("b", width);
    let c = nl.input("c", width);
    let d = nl.input("d", width);
    let e = nl.input("e", width);
    let f = nl.input("f", width);
    let s1 = nl.add(a, b);
    let s2 = nl.add(s1, c);
    let s3 = nl.add(s2, d);
    let s4 = nl.add(s3, e);
    let s5 = nl.add(s4, f);
    let dbl = nl.add(s5, s5); // always even
    let odd = nl.constant(&Bv::from_u64(width, 0x15_5555)); // odd target
    let hit = nl.eq(dbl, odd);
    let controls: Vec<_> = (0..8).map(|i| nl.input(format!("c{i}"), 1)).collect();
    let pairs: Vec<_> = controls.chunks(2).map(|p| nl.or2(p[0], p[1])).collect();
    let ctrl = nl.and_many(&pairs);
    let bad = nl.and2(ctrl, hit);
    let ok = nl.not(bad);
    nl.mark_output("ok", ok);
    let property = Property::always(&nl, "even_sum_never_odd", ok);
    Verification::new(nl, property)
}

fn measure_datapath() -> Vec<Metric> {
    let verification = datapath_bench_verification();
    let options = |incremental| CheckerOptions {
        max_frames: 1,
        use_induction: false,
        time_limit: Duration::from_secs(60),
        incremental_datapath: incremental,
        ..CheckerOptions::default()
    };
    let run = |incremental| {
        let checker = AssertionChecker::new(options(incremental));
        // Warm-up, then aggregate a fixed number of checks.
        let _ = checker.check(&verification);
        let mut stats = CheckStats::default();
        for _ in 0..10 {
            let report = checker.check(&verification);
            assert!(
                report.result.is_pass(),
                "2·sum is even and can never equal the odd target"
            );
            stats.absorb(&report.stats);
        }
        stats
    };
    let incremental = run(true);
    let scratch = run(false);
    vec![
        Metric {
            name: "datapath_ns_per_arith_call",
            value: incremental.ns_per_arith_call().unwrap_or(f64::NAN),
            gate: Gate::Ratio,
        },
        Metric {
            name: "datapath_arith_calls",
            value: incremental.arithmetic_calls as f64,
            gate: Gate::Exact,
        },
        Metric {
            name: "datapath_island_cache_hit_rate",
            value: incremental.island_cache_hit_rate().unwrap_or(0.0),
            gate: Gate::Untracked,
        },
        // The from-scratch oracle path on the same workload: the ratio to
        // `datapath_ns_per_arith_call` is the incremental-resolution speedup.
        Metric {
            name: "datapath_scratch_ns_per_arith_call",
            value: scratch.ns_per_arith_call().unwrap_or(f64::NAN),
            gate: Gate::Untracked,
        },
    ]
}

fn measure_cdcl() -> Vec<Metric> {
    // PHP(8,7): unsatisfiable, solved only through clause learning; a good
    // end-to-end proxy for propagation + analysis + DB management speed.
    let cnf = php_cnf(8, 7);
    let start = Instant::now();
    let (model, complete) = cnf.solve(2_000_000);
    let wall = start.elapsed().as_secs_f64();
    assert!(complete && model.is_none(), "PHP(8,7) must be proved UNSAT");
    vec![Metric {
        name: "cdcl_php87_wall_s",
        value: wall,
        gate: Gate::Ratio,
    }]
}

fn measure_portfolio() -> Vec<Metric> {
    let suite = paper_suite(Scale::Small);
    let jobs: Vec<_> = suite.iter().map(|c| c.verification.clone()).collect();
    let start = Instant::now();
    let reports = Portfolio::with_defaults().check_batch(&jobs);
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(reports.len(), jobs.len());
    vec![Metric {
        name: "portfolio_small_wall_s",
        value: wall,
        gate: Gate::Ratio,
    }]
}

/// Repeated-batch workload through the verification service: the Small
/// suite submitted twice to one session. The cold run races warm-started
/// engines and fills the knowledge base + verdict cache; the warm run must
/// be answered from the cache. `service_warm_speedup` (cold wall / warm
/// wall) and the cache hit rate are the service's headline numbers.
fn measure_service() -> Vec<Metric> {
    let mut config = ServiceConfig::default();
    config.portfolio.checker.max_frames = 6;
    config.portfolio.bmc_decision_budget = 2_000_000;
    let service = VerificationService::new(config);
    let jobs: Vec<_> = paper_suite(Scale::Small)
        .into_iter()
        .map(|case| case.verification)
        .collect();

    let start = Instant::now();
    let cold = service.wait(service.submit_batch(jobs.clone()));
    let cold_wall = start.elapsed().as_secs_f64();
    assert!(
        cold.iter().all(|r| r.verdict.is_definitive()),
        "cold service run must decide the whole suite"
    );

    let start = Instant::now();
    let warm = service.wait(service.submit_batch(jobs));
    let warm_wall = start.elapsed().as_secs_f64();
    assert!(
        warm.iter().all(|r| r.from_cache),
        "repeated batch must be served from the verdict cache"
    );

    let stats = service.stats();
    vec![
        Metric {
            name: "service_cold_wall_s",
            value: cold_wall,
            gate: Gate::Ratio,
        },
        Metric {
            name: "service_warm_wall_s",
            value: warm_wall,
            gate: Gate::Ratio,
        },
        Metric {
            name: "service_warm_speedup",
            value: cold_wall / warm_wall.max(1e-9),
            gate: Gate::Untracked,
        },
        Metric {
            name: "service_cache_hit_rate",
            value: stats.cache_hit_rate(),
            gate: Gate::Untracked,
        },
        Metric {
            name: "service_clauses_banked",
            value: stats.clauses_banked as f64,
            gate: Gate::Untracked,
        },
    ]
}

/// Cold-vs-restart-warm workload through the network server: a design and
/// its properties are checked over a real TCP socket, the server is shut
/// down gracefully (drain + snapshot), a fresh server boots from the same
/// data directory, and the identical batch is re-submitted. The restarted
/// server must answer every job from the persisted verdict cache with the
/// same verdicts the cold run produced.
fn measure_server_restart() -> Vec<Metric> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use wlac_server::{Json, Server, ServerConfig};

    const PIPELINE_V: &str = r#"
        module pipeline(input clk, input [7:0] a, input [7:0] b, input start,
                        output ok, output busy, output idle);
          reg [7:0] acc;
          reg [1:0] stage;
          always @(posedge clk) begin
            if (stage == 0) begin
              if (start) begin
                acc <= a + b;
                stage <= 1;
              end
            end else if (stage == 1) begin
              acc <= acc + acc;
              stage <= 2;
            end else
              stage <= 0;
          end
          assign busy = stage != 0;
          assign idle = stage == 0;
          assign ok = stage != 3;  // stage encoding 3 is unreachable
        endmodule
    "#;

    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let writer = TcpStream::connect(addr).expect("connect to bench server");
            let reader = BufReader::new(writer.try_clone().expect("clone stream"));
            Client { writer, reader }
        }

        fn call(&mut self, request: Json) -> Json {
            self.writer
                .write_all(format!("{request}\n").as_bytes())
                .expect("send");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("receive");
            let reply = Json::parse(line.trim_end()).expect("valid reply");
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{request} failed: {reply}"
            );
            reply
        }
    }

    let data_dir = std::env::temp_dir().join(format!("wlac-bench-server-{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();
    let boot = |dir: &std::path::Path| {
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        };
        config.service.portfolio.checker.max_frames = 6;
        let server = Server::bind(config).expect("bind bench server");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    };
    let run_batch = |addr: SocketAddr, expect_cached: bool| -> (Vec<String>, bool) {
        let mut client = Client::connect(addr);
        let reply = client.call(Json::obj(vec![
            ("op", Json::str("register_design")),
            ("source", Json::str(PIPELINE_V)),
        ]));
        let design = reply
            .get("design")
            .and_then(Json::as_str)
            .expect("design")
            .to_string();
        let job = |kind: &str, monitor: &str| {
            Json::obj(vec![
                ("design", Json::str(design.clone())),
                (
                    "property",
                    Json::obj(vec![
                        ("kind", Json::str(kind)),
                        ("monitor", Json::str(monitor)),
                    ]),
                ),
            ])
        };
        let reply = client.call(Json::obj(vec![
            ("op", Json::str("submit_batch")),
            (
                "jobs",
                Json::Arr(vec![
                    job("always", "ok"),
                    job("eventually", "busy"),
                    job("eventually", "idle"),
                ]),
            ),
        ]));
        let batch = reply.get("batch").and_then(Json::as_u64).expect("batch");
        let reply = client.call(Json::obj(vec![
            ("op", Json::str("wait")),
            ("batch", Json::num(batch)),
        ]));
        let results = reply
            .get("results")
            .and_then(Json::as_arr)
            .expect("results");
        let labels = results
            .iter()
            .map(|r| {
                r.get("verdict")
                    .and_then(|v| v.get("label"))
                    .and_then(Json::as_str)
                    .expect("label")
                    .to_string()
            })
            .collect();
        let all_cached = results
            .iter()
            .all(|r| r.get("from_cache").and_then(Json::as_bool) == Some(true));
        if expect_cached && !all_cached {
            eprintln!("expected cached results, got: {results:?}");
        }
        client.call(Json::obj(vec![("op", Json::str("shutdown"))]));
        (labels, all_cached)
    };

    // Cold session: race, persist, shut down.
    let (addr, handle) = boot(&data_dir);
    let start = Instant::now();
    let (cold_labels, cold_cached) = run_batch(addr, false);
    let cold_wall = start.elapsed().as_secs_f64();
    handle.join().expect("cold server thread");
    assert!(!cold_cached, "cold run must race");
    assert!(
        cold_labels.iter().all(|l| l != "unknown"),
        "cold run must decide every property: {cold_labels:?}"
    );

    // Warm session: a different process-equivalent restarted from disk.
    let (addr, handle) = boot(&data_dir);
    let start = Instant::now();
    let (warm_labels, warm_cached) = run_batch(addr, true);
    let warm_wall = start.elapsed().as_secs_f64();
    handle.join().expect("warm server thread");
    assert!(
        warm_cached,
        "restarted server must answer the repeat batch from the persisted cache"
    );
    assert_eq!(
        cold_labels, warm_labels,
        "verdicts must be identical across the restart"
    );
    let cache_hits = warm_labels.len() as f64;
    std::fs::remove_dir_all(&data_dir).ok();

    vec![
        Metric {
            name: "server_cold_wall_s",
            value: cold_wall,
            gate: Gate::Ratio,
        },
        Metric {
            name: "server_restart_warm_wall_s",
            value: warm_wall,
            gate: Gate::Ratio,
        },
        Metric {
            name: "server_restart_speedup",
            value: cold_wall / warm_wall.max(1e-9),
            gate: Gate::Untracked,
        },
        // > 0 is asserted above; recorded so the committed baseline shows it.
        Metric {
            name: "server_restart_cache_hits",
            value: cache_hits,
            gate: Gate::Untracked,
        },
    ]
}

fn measure_industry01_paper() -> Vec<Metric> {
    let suite = paper_suite(Scale::Paper);
    let case = suite
        .iter()
        .find(|c| c.circuit == "industry_01")
        .expect("industry_01 case");
    let start = Instant::now();
    let report = Portfolio::with_defaults().race(&case.verification);
    let wall = start.elapsed().as_secs_f64();
    eprintln!(
        "industry_01 paper-scale race: {} in {:.3}s",
        report.verdict.label(),
        wall
    );
    vec![Metric {
        name: "portfolio_industry01_paper_wall_s",
        value: wall,
        gate: Gate::Untracked,
    }]
}

/// Renders the measurements through the shared telemetry registry: each
/// metric becomes a gauge and the output is
/// [`MetricsRegistry::render_json`]'s flat object — the same exposition
/// machinery the server's `metrics` op uses, so the baseline files and the
/// live endpoint speak one format. (A side effect worth keeping: non-finite
/// values render as `0` instead of producing invalid JSON; the regression
/// gate still sees the raw value and fails on it.)
fn render_json(metrics: &[Metric]) -> String {
    let registry = MetricsRegistry::new();
    for m in metrics {
        registry.gauge(m.name).set(m.value);
    }
    registry.render_json()
}

/// Extracts `"key": number` pairs from the `"after"` object of a baseline
/// file (or from the whole file when no `"after"` object exists). The format
/// is our own flat reporter output, so a scanning parser suffices.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let body = match text.find("\"after\"") {
        Some(pos) => {
            let open = text[pos..].find('{').map(|o| pos + o).unwrap_or(0);
            let close = text[open..]
                .find('}')
                .map(|c| open + c)
                .unwrap_or(text.len());
            &text[open..close]
        }
        None => text,
    };
    let mut out = Vec::new();
    for part in body.split(',') {
        let mut halves = part.splitn(2, ':');
        let (Some(key), Some(value)) = (halves.next(), halves.next()) else {
            continue;
        };
        let key = key
            .trim()
            .trim_matches(|c| c == '"' || c == '{' || c == '\n' || c == ' ');
        if let Ok(v) = value.trim().trim_end_matches('}').trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut industry01 = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => baseline_path = iter.next().cloned(),
            "--industry01-paper" => industry01 = true,
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let mut metrics = Vec::new();
    metrics.extend(measure_small_suite());
    let unprobed_ns = metrics
        .iter()
        .find(|m| m.name == "implication_ns_per_gate_eval")
        .map(|m| m.value)
        .unwrap_or(f64::NAN);
    metrics.extend(measure_probed_small_suite(unprobed_ns));
    metrics.extend(measure_datapath());
    metrics.extend(measure_cdcl());
    metrics.extend(measure_portfolio());
    metrics.extend(measure_service());
    metrics.extend(measure_server_restart());
    if industry01 {
        metrics.extend(measure_industry01_paper());
    }
    println!("{}", render_json(&metrics));

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = parse_baseline(&text);
        let mut failures = Vec::new();
        for m in metrics.iter().filter(|m| m.gate != Gate::Untracked) {
            // A tracked metric that degenerated to NaN/inf (e.g. a workload
            // that stopped exercising its hot path, making the denominator
            // zero) must fail the gate, not silently pass every comparison.
            if !m.value.is_finite() {
                failures.push(format!("{}: live value {} is not finite", m.name, m.value));
                continue;
            }
            let base = baseline.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v);
            if m.gate == Gate::Exact {
                if base != Some(m.value) {
                    failures.push(format!(
                        "{}: live {} != baseline {:?} (the search changed)",
                        m.name, m.value, base
                    ));
                }
                continue;
            }
            let Some(base) = base else {
                continue;
            };
            // Noise floors keep the gate robust on slow shared CI runners:
            // tiny wall-clock workloads and per-eval latencies vary with
            // machine class, while allocs_per_gate_eval is deterministic and
            // carries the gate with no floor at all.
            let floor = if m.name.ends_with("_wall_s") {
                0.05
            } else if m.name.ends_with("_ns_per_gate_eval") {
                1500.0
            } else if m.name.ends_with("_ns_per_arith_call") {
                3000.0
            } else {
                0.0
            };
            if m.value > (base.max(floor)) * 3.0 {
                failures.push(format!(
                    "{}: live {:.6} > 3x baseline {:.6}",
                    m.name, m.value, base
                ));
            }
        }
        if failures.is_empty() {
            eprintln!("perf check OK against {path}");
        } else {
            for f in &failures {
                eprintln!("PERF REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }
}
