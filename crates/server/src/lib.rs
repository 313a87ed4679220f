//! # wlac-server — the network front end of the verification service
//!
//! PR 4's [`wlac_service::VerificationService`] made checking a long-lived,
//! learning session — but only for callers inside the same process. This
//! crate puts it on the network and on disk:
//!
//! * **Wire protocol** — a thread-per-connection TCP listener speaking
//!   line-delimited JSON (hand-rolled [`Json`]; the workspace builds offline,
//!   so no serde/tokio). Requests: `register_design` (Verilog-subset source,
//!   compiled by `wlac-frontend`), `submit_batch`, `results`, `wait`,
//!   `progress`, `subscribe`, `stats`, `export_knowledge`,
//!   `import_knowledge`, `metrics`, `health`, `events`, `trace_check`,
//!   `ping`, `shutdown`. Malformed frames get structured
//!   `{"ok":false,"error":{…}}` replies on the same connection instead of a
//!   dropped socket.
//! * **Observability** — one [`wlac_telemetry::MetricsRegistry`] is shared
//!   by the whole stack (service gauges and counters, portfolio race
//!   attribution, aggregated core search effort, per-op request counters and
//!   latency histograms). The `metrics` op exposes it as Prometheus text and
//!   flat JSON; `trace_check` runs one property with search tracing on and
//!   returns its verdict (encoded by [`proto::verdict_to_wire`], like every
//!   job result's) with the phase-attributed time breakdown and span events;
//!   requests slower than one second get a structured stderr line. An always-on [`wlac_telemetry::FlightRecorder`] captures
//!   compact structured events from every layer (`events` tails it
//!   remotely), every contained fault writes a bounded
//!   [`PostmortemWriter`] bundle, and `health` answers
//!   liveness/readiness from worker quorum, queue depth, durability state
//!   and rolling error-rate / p99 objectives.
//! * **Persistence** — with a data directory, every definitive result is
//!   appended to a per-design write-ahead journal
//!   ([`wlac_persist::JournalSink`], with group-commit fsync counted per
//!   design; [`ServerConfig::journal_fsync_batch`] 1 syncs every append)
//!   *before* the client sees the acknowledgement, and journals are
//!   compacted into [`wlac_persist::Snapshot`]s in the background and on
//!   the graceful-shutdown drain; on boot the server reloads every snapshot
//!   through the service's validating import and replays the journal suffix
//!   (torn tails quarantined, never a boot failure), so a restarted server
//!   answers repeat queries from the persisted verdict cache with zero
//!   engine spawns.
//! * **Tooling** — the `wlac-server` binary runs the daemon, `wlac-client`
//!   drives it from scripts and CI (`register` / `check` / `stats` /
//!   `export` / `import` / `shutdown`).
//!
//! See the README's "Server" section for the full protocol reference.
//!
//! # Examples
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//! use wlac_server::{Server, ServerConfig};
//!
//! let mut config = ServerConfig::default();
//! config.addr = "127.0.0.1:0".into(); // ephemeral port
//! let server = Server::bind(config)?;
//! let addr = server.local_addr()?;
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut stream = TcpStream::connect(addr)?;
//! stream.write_all(b"{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n")?;
//! let mut lines = BufReader::new(stream).lines();
//! assert!(lines.next().unwrap()?.contains("\"ok\":true"));
//! handle.join().unwrap();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serving path must degrade, not die: every fallible unwrap is a
// potential crash a fault can reach, so they are banned outside tests
// (see clippy.toml for the test exemption).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod json;
pub mod postmortem;
pub mod proto;
mod server;

pub use json::{Json, JsonError};
pub use postmortem::PostmortemWriter;
pub use proto::ErrorCode;
pub use server::{Server, ServerConfig, MAX_REQUEST_LINE};
