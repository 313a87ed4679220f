//! The verification-server daemon.
//!
//! ```text
//! wlac-server [--addr HOST:PORT] [--data-dir DIR] [--workers N]
//!             [--max-frames N] [--time-limit-secs N] [--cache-capacity N]
//!             [--max-connections N] [--read-timeout-secs N]
//!             [--wait-timeout-secs N] [--job-budget-secs N]
//!             [--drain-timeout-secs N]
//!             [--journal-fsync-batch N] [--journal-compact-bytes N]
//!             [--postmortem-dir DIR] [--max-queue-depth N]
//!             [--fault SITE:N] [--fault-from SITE:N]
//! ```
//!
//! With `--data-dir`, every raced result is appended to its design's
//! write-ahead journal before it is acknowledged; `--journal-fsync-batch 1`
//! fsyncs every append, so acknowledged results survive a power loss too.
//!
//! `--fault SITE:N` arms the fault-injection plan to fire `SITE` exactly on
//! its Nth hit; `--fault-from SITE:N` fires on every hit from the Nth on.
//! Sites: `engine_hang`, `worker_panic`, `worker_loss`, `snapshot_write`,
//! `snapshot_torn`, `journal_append`, `journal_torn`, `crash_point`. There
//! is one plan for the whole process; each site is crossed in one layer
//! only. Chaos drills and the CI post-mortem smoke only; harmless when
//! unused.
//!
//! Prints `listening on <addr>` once ready (scripts parse this line — with
//! `--addr 127.0.0.1:0` it carries the ephemeral port), then serves until a
//! `shutdown` request drains and persists everything.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::time::Duration;
use wlac_faultinject::FaultSite;
use wlac_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: wlac-server [--addr HOST:PORT] [--data-dir DIR] [--workers N] \
         [--max-frames N] [--time-limit-secs N] [--cache-capacity N] \
         [--max-connections N] [--read-timeout-secs N] [--wait-timeout-secs N] \
         [--job-budget-secs N] [--drain-timeout-secs N] \
         [--journal-fsync-batch N] [--journal-compact-bytes N] \
         [--postmortem-dir DIR] [--max-queue-depth N] \
         [--fault SITE:N] [--fault-from SITE:N]"
    );
    std::process::exit(2);
}

/// Parses a `SITE:N` fault spec (e.g. `worker_panic:1`).
fn parse_fault_spec(spec: &str) -> Option<(FaultSite, u64)> {
    let (site, n) = spec.split_once(':')?;
    Some((FaultSite::parse(site)?, n.parse().ok()?))
}

fn main() {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => config.addr = value(),
            "--data-dir" => config.data_dir = Some(PathBuf::from(value())),
            "--workers" => {
                config.service.workers = value().parse().unwrap_or_else(|_| usage());
            }
            "--max-frames" => {
                config.service.portfolio.checker.max_frames =
                    value().parse().unwrap_or_else(|_| usage());
            }
            "--time-limit-secs" => {
                config.service.portfolio.checker.time_limit =
                    Duration::from_secs(value().parse().unwrap_or_else(|_| usage()));
            }
            "--cache-capacity" => {
                config.service.cache_capacity = value().parse().unwrap_or_else(|_| usage());
            }
            "--max-connections" => {
                config.max_connections = value().parse().unwrap_or_else(|_| usage());
            }
            "--read-timeout-secs" => {
                let secs: u64 = value().parse().unwrap_or_else(|_| usage());
                config.read_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--wait-timeout-secs" => {
                config.wait_timeout =
                    Duration::from_secs(value().parse().unwrap_or_else(|_| usage()));
            }
            "--job-budget-secs" => {
                config.service.portfolio.job_budget = Some(Duration::from_secs(
                    value().parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--drain-timeout-secs" => {
                config.drain_timeout =
                    Duration::from_secs(value().parse().unwrap_or_else(|_| usage()));
            }
            "--journal-fsync-batch" => {
                config.journal_fsync_batch = value().parse().unwrap_or_else(|_| usage());
            }
            "--journal-compact-bytes" => {
                config.journal_compact_bytes = value().parse().unwrap_or_else(|_| usage());
            }
            "--postmortem-dir" => {
                config.postmortem_dir = Some(PathBuf::from(value()));
            }
            "--max-queue-depth" => {
                config.max_queue_depth = value().parse().unwrap_or_else(|_| usage());
            }
            // One plan: each site is crossed in one layer only (service
            // worker loop, engines, or the server's persistence I/O), so
            // the operator never has to know which layer owns a site.
            "--fault" => {
                let (site, n) = parse_fault_spec(&value()).unwrap_or_else(|| usage());
                config.service.faults = config.service.faults.fire_nth(site, n);
            }
            "--fault-from" => {
                let (site, n) = parse_fault_spec(&value()).unwrap_or_else(|| usage());
                config.service.faults = config.service.faults.fire_from(site, n);
            }
            _ => usage(),
        }
    }

    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("wlac-server: cannot start: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("wlac-server: bound socket has no address: {e}");
            std::process::exit(1);
        }
    };
    if server.loaded_snapshots() > 0 || server.boot_replayed_records() > 0 {
        eprintln!(
            "wlac-server: warm boot, {} snapshot(s) loaded, {} journal record(s) replayed",
            server.loaded_snapshots(),
            server.boot_replayed_records()
        );
    }
    if server.snapshots_rejected_at_boot() > 0 {
        eprintln!(
            "wlac-server: cold boot for {} design(s): snapshot(s) rejected and no backup",
            server.snapshots_rejected_at_boot()
        );
    }
    if server.journal_quarantined_bytes() > 0 {
        eprintln!(
            "wlac-server: quarantined {} journal byte(s) past the last valid record",
            server.journal_quarantined_bytes()
        );
    }
    println!("listening on {addr}");
    server.run();
    println!("wlac-server: drained and saved, bye");
}
