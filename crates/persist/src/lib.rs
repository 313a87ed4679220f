//! # wlac-persist — versioned, checksummed on-disk knowledge snapshots
//!
//! [`wlac_service::VerificationService`] accumulates a per-design
//! [`wlac_service::KnowledgeBase`] and a verdict cache — and would lose both
//! on every process exit. This crate is the durability layer: a [`Snapshot`]
//! bundles one design's canonical netlist, its learning store (SAT BMC
//! clauses and engine history) and its cached verdicts into a self-contained
//! binary file that a restarted server reads back to answer repeat queries
//! warm, and the write-ahead journal keeps what completed since.
//!
//! The format is deliberately paranoid, because a snapshot crosses a trust
//! boundary (the file system) between sessions:
//!
//! * **magic + version** — a foreign or future file is rejected before any
//!   payload is touched;
//! * **FNV-64 checksum** over the entire frame — truncation or bit rot is
//!   detected instead of decoded;
//! * **bounds-checked decoding** — every length is validated against the
//!   remaining bytes, so a corrupt length field cannot trigger huge
//!   allocations;
//! * **structural re-validation** — the netlist is *rebuilt* through the
//!   ordinary [`wlac_netlist::Netlist`] constructors (which re-run all gate
//!   shape checks) and must reproduce the design hash recorded in the file;
//!   clauses and verdicts are then re-validated again by the service's
//!   [`wlac_service::KnowledgeError`] import path before anything is
//!   trusted.
//!
//! Snapshots and journal records keep an ESTG section that current writers
//! leave empty: ATPG conflict history lives for one check, not across a
//! design's properties. Files written by earlier servers carry entries
//! there; they decode as before and the entries are dropped, so no format
//! version changed.
//!
//! Writes are atomic: the snapshot is written to a temporary file in the
//! destination directory, flushed, and renamed over the target, so a crash
//! mid-write leaves the previous snapshot intact and never a partial file
//! under the target name. Each successful save also keeps the previous
//! generation as `<file>.bak`, and [`load_snapshot_with_fallback`] boots
//! from it when the primary is lost or corrupt; [`clean_stale_temp_files`]
//! sweeps the temp-file debris of writers that died mid-save.
//!
//! # Examples
//!
//! ```
//! use wlac_netlist::Netlist;
//! use wlac_persist::{load_snapshot, save_snapshot, Snapshot};
//! use wlac_service::{design_hash, KnowledgeBase};
//!
//! let mut nl = Netlist::new("adder");
//! let a = nl.input("a", 4);
//! let b = nl.input("b", 4);
//! let s = nl.add(a, b);
//! nl.mark_output("s", s);
//! let snapshot = Snapshot {
//!     netlist: nl.clone(),
//!     knowledge: KnowledgeBase::new(design_hash(&nl)),
//!     verdicts: Vec::new(),
//! };
//!
//! let path = std::env::temp_dir().join(format!("doc-{}.wlacsnap", std::process::id()));
//! save_snapshot(&path, &snapshot)?;
//! let restored = load_snapshot(&path)?;
//! assert_eq!(design_hash(&restored.netlist), design_hash(&nl));
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), wlac_persist::PersistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serving path must degrade, not die: every fallible unwrap is a
// potential crash a fault can reach, so they are banned outside tests
// (see clippy.toml for the test exemption).
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod format;
mod journal;
mod snapshot;

pub use format::{PersistError, FORMAT_VERSION, MAGIC};
pub use journal::{
    journal_file_name, read_journal, recover_journal, truncate_to_valid, AppendReceipt,
    JournalRecord, JournalReplay, JournalSink, JournalWriter, JOURNAL_MAGIC,
};
pub use snapshot::{
    backup_file_name, clean_stale_temp_files, decode_snapshot, encode_snapshot, load_snapshot,
    load_snapshot_with_fallback, save_snapshot, save_snapshot_faulted, snapshot_file_name,
    write_atomic, Snapshot,
};
