//! Reproduces the paper's Table 2: CPU time and memory for properties
//! p1–p14, side by side with the numbers reported in the paper.
//!
//! Usage: `cargo run -p wlac-bench --release --bin table2 [-- [small|paper] [--check FILE]]`
//! (defaults to the small scale so a full run finishes in seconds; the paper
//! scale regenerates Table 1-sized designs).
//!
//! With `--check FILE` the run also compares every property's label,
//! decisions, backtracks and gate evaluations with the scale's section of
//! the baseline FILE (`BENCH_32.json` holds both scales) and exits 1 on any
//! difference. The counters are deterministic, so a difference means the
//! search changed; the run then prints the live section, which is the
//! baseline to commit when the change is intended.

use std::process::exit;
use wlac_atpg::{CheckReport, Verdict};
use wlac_bench::{run_case, table2_header, table2_row};
use wlac_circuits::{paper_suite, Scale};
use wlac_server::Json;

/// What `--check` compares for one property.
struct Counters {
    property: String,
    label: &'static str,
    decisions: u64,
    backtracks: u64,
    gate_evals: u64,
}

impl Counters {
    fn of(property: &str, report: &CheckReport) -> Self {
        Counters {
            property: property.to_string(),
            label: report.result.label(),
            decisions: report.stats.decisions,
            backtracks: report.stats.backtracks,
            gate_evals: report.stats.implication.gate_evaluations,
        }
    }

    fn numbers(&self) -> [(&'static str, u64); 3] {
        [
            ("decisions", self.decisions),
            ("backtracks", self.backtracks),
            ("gate_evals", self.gate_evals),
        ]
    }
}

/// One scale's section of the baseline file, one property per line.
fn section(scale: &str, live: &[Counters]) -> String {
    let rows: Vec<String> = live
        .iter()
        .map(|row| {
            let numbers: String = row
                .numbers()
                .iter()
                .map(|(name, value)| format!(", \"{name}\": {value}"))
                .collect();
            format!(
                "    \"{}\": {{\"label\": \"{}\"{numbers}}}",
                row.property, row.label
            )
        })
        .collect();
    format!("  \"{scale}\": {{\n{}\n  }}", rows.join(",\n"))
}

/// Every difference between the live counters and the baseline's `scale`
/// section, one line each.
fn differences(path: &str, scale: &str, live: &[Counters]) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("cannot read {path}: {e}")],
    };
    let baseline = match Json::parse(&text) {
        Ok(json) => json,
        Err(e) => return vec![format!("{path} is not JSON: {e}")],
    };
    let Some(Json::Obj(properties)) = baseline.get(scale) else {
        return vec![format!("{path} has no `{scale}` section")];
    };
    let mut found = Vec::new();
    for row in live {
        let Some(base) = baseline.get(scale).and_then(|s| s.get(&row.property)) else {
            found.push(format!("{}: not in the baseline", row.property));
            continue;
        };
        let label = base.get("label").and_then(Json::as_str);
        if label != Some(row.label) {
            found.push(format!(
                "{}: label {} != baseline {label:?}",
                row.property, row.label
            ));
        }
        for (name, value) in row.numbers() {
            let expected = base.get(name).and_then(Json::as_u64);
            if expected != Some(value) {
                found.push(format!(
                    "{}: {name} {value} != baseline {expected:?}",
                    row.property
                ));
            }
        }
    }
    for (name, _) in properties {
        if !live.iter().any(|row| row.property == *name) {
            found.push(format!("{name}: in the baseline but not in the suite"));
        }
    }
    found
}

fn main() {
    let mut scale = Scale::Small;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "small" => scale = Scale::Small,
            "paper" => scale = Scale::Paper,
            "--check" => match args.next() {
                Some(path) => baseline = Some(path),
                None => {
                    eprintln!("--check needs a baseline file");
                    exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                exit(2);
            }
        }
    }
    println!("== Table 2: assertion checking results ({scale:?} scale) ==");
    println!("{}", table2_header());
    let mut total_cpu = 0.0;
    let mut worst_mem: f64 = 0.0;
    let mut mismatches = 0usize;
    let mut live = Vec::new();
    for case in paper_suite(scale) {
        let report = run_case(&case);
        let ok = match case.expectation {
            wlac_circuits::Expectation::Pass => matches!(report.result, Verdict::Holds { .. }),
            wlac_circuits::Expectation::Witness => report.result.trace().is_some(),
        };
        if !ok {
            mismatches += 1;
        }
        total_cpu += report.stats.cpu_seconds();
        worst_mem = worst_mem.max(report.stats.peak_memory_mb());
        println!("{}", table2_row(&case, &report));
        live.push(Counters::of(&case.property, &report));
    }
    println!();
    println!(
        "total cpu {total_cpu:.2}s, peak memory {worst_mem:.2}MB, {mismatches} outcome mismatch(es)"
    );
    println!(
        "paper totals for reference: 180.2s cpu, 54.66MB peak memory (Sun UltraSparc 5, 512MB)"
    );
    if let Some(path) = baseline {
        let scale = match scale {
            Scale::Small => "small",
            Scale::Paper => "paper",
        };
        let found = differences(&path, scale, &live);
        if !found.is_empty() {
            for difference in &found {
                eprintln!("COUNTER CHANGE: {difference}");
            }
            eprintln!("live section, the baseline if the change is intended:");
            eprintln!("{}", section(scale, &live));
            exit(1);
        }
        println!(
            "search counters match {path} ({scale} scale, {} properties)",
            live.len()
        );
    }
}
