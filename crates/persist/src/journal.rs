//! The write-ahead knowledge journal: bounded-loss, O(delta) durability.
//!
//! Snapshots (see [`crate::snapshot`]) persist a design's *entire* state and
//! are too heavy to rewrite per job; before this module, everything earned
//! since the last autosave died with the process. The journal closes that
//! gap: as each raced job completes, the service's durability hook appends
//! one self-checksummed record — the definitive verdict (if any), the
//! harvested frame clauses and the engine-history delta — to
//! `d<hash>.wlacjournal`, *before* the result is acknowledged to any client.
//! A record also has an ESTG-delta section, which the sink writes empty:
//! servers before this one journaled ATPG conflict counts there, and their
//! journals still decode (boot replay ignores the section).
//!
//! # On-disk layout
//!
//! ```text
//! header:  "WLACJRNL" | version u32 | payload_len u64 | payload | fnv64
//!          payload = design hash u64 | canonical netlist
//! record*: payload_len u32 | payload | fnv64(payload)
//! ```
//!
//! The header embeds the canonical netlist, so a journal is self-contained:
//! a design that crashed before its first snapshot still re-registers on
//! boot from the journal alone. Records are length-prefixed and
//! individually FNV-64 checksummed; recovery ([`read_journal`]) accepts the
//! longest valid prefix and *quarantines* the tail — a torn append, a
//! truncation or bit rot costs at most the unacknowledged suffix, never a
//! boot failure.
//!
//! # Compaction
//!
//! A successful snapshot autosave makes the journal redundant: the server
//! resets it to header-only ([`JournalWriter::reset`] /
//! [`JournalSink::reset`]). Boot is therefore always *snapshot (primary →
//! `.bak`) + journal suffix*. Replay is harmless-idempotent by
//! construction: verdicts and clauses deduplicate exactly in the service's
//! validated import paths, and history deltas at worst over-count after an
//! unlucky crash between compaction and truncation — scheduling pressure,
//! never verdicts.
//!
//! # Group commit
//!
//! [`JournalWriter`] writes every record synchronously (a `kill -9` after
//! the append therefore never loses acknowledged work — the kernel page
//! cache survives the process) but batches the expensive `fsync` across
//! records: `fsync_batch = n` syncs every n-th append to that writer's
//! file. A [`JournalSink`] keeps one writer per design, so a power loss can
//! cost up to n−1 acknowledged records *per design*. Power-loss-critical
//! deployments run batch 1 (an fsync per append); the default trades that
//! window for an order of magnitude on the hot path.

use crate::format::{fnv64, PersistError, Reader, Writer, FORMAT_VERSION};
use crate::snapshot::{
    read_clauses, read_engine, read_estg, read_netlist, read_verdict_record, sync_parent_dir,
    write_clauses, write_estg, write_netlist, write_verdict_record,
};
use std::collections::HashMap;
use std::fs;
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wlac_baselines::FrameClause;
use wlac_faultinject::{FaultPlan, FaultSite, LockExt};
use wlac_netlist::{NetId, Netlist};
use wlac_portfolio::Engine;
use wlac_service::{design_hash, DesignHash, DurabilityRecord, DurabilitySink, VerdictRecord};
use wlac_telemetry::{MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer};

/// First eight bytes of every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"WLACJRNL";

/// Canonical journal file name for a design: `d<hash>.wlacjournal`.
pub fn journal_file_name(design: DesignHash) -> String {
    format!("{design}.wlacjournal")
}

/// One journal record: everything one completed raced job contributed.
#[derive(Debug, Clone, Default)]
pub struct JournalRecord {
    /// The cache entry the job created, when its verdict was definitive.
    pub verdict: Option<VerdictRecord>,
    /// Design-valid frame clauses harvested from the race.
    pub clauses: Vec<FrameClause>,
    /// ESTG conflicts `(net, value, count)`: what servers before this one
    /// journaled of a job's ATPG search. [`JournalSink`] writes it empty,
    /// and boot replay ignores it.
    pub estg_delta: Vec<(NetId, bool, u64)>,
    /// Engines the race spawned (the engine-history delta).
    pub ran: Vec<Engine>,
    /// The engine that won, when any did.
    pub winner: Option<Engine>,
}

/// A recovered journal: the longest valid prefix, decoded.
#[derive(Debug)]
pub struct JournalReplay {
    /// The design this journal belongs to (reproduced by the embedded
    /// netlist, checked).
    pub design: DesignHash,
    /// The canonical netlist from the header — enough to re-register the
    /// design even when no snapshot exists yet.
    pub netlist: Netlist,
    /// The valid records, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of the valid prefix (header + whole records).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix — a torn append, truncation debris or bit
    /// rot. Recovery quarantines them; they were never acknowledged.
    pub quarantined_bytes: u64,
}

// --- record codec ------------------------------------------------------------

fn encode_record(record: &JournalRecord) -> Result<Vec<u8>, PersistError> {
    let mut w = Writer::new();
    match &record.verdict {
        None => w.bool(false),
        Some(v) => {
            w.bool(true);
            write_verdict_record(&mut w, v)?;
        }
    }
    write_clauses(&mut w, &record.clauses);
    write_estg(&mut w, &record.estg_delta);
    w.usize(record.ran.len());
    for engine in &record.ran {
        w.u8(Engine::code(*engine));
    }
    w.u8(record.winner.map(Engine::code).unwrap_or(u8::MAX));
    Ok(w.into_bytes())
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, PersistError> {
    let mut r = Reader::new(payload);
    let verdict = if r.bool()? {
        Some(read_verdict_record(&mut r)?)
    } else {
        None
    };
    let clauses = read_clauses(&mut r)?;
    let estg_delta = read_estg(&mut r)?;
    let ran_count = r.len(1)?;
    let mut ran = Vec::with_capacity(ran_count);
    for _ in 0..ran_count {
        ran.push(read_engine(r.u8()?)?.ok_or(PersistError::Malformed("engine list holds a gap"))?);
    }
    let winner = read_engine(r.u8()?)?;
    if !r.is_done() {
        return Err(PersistError::Malformed("trailing bytes after record"));
    }
    Ok(JournalRecord {
        verdict,
        clauses,
        estg_delta,
        ran,
        winner,
    })
}

/// One record as it lands on disk: length prefix, payload, checksum.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv64(payload).to_le_bytes());
    frame
}

// --- header codec ------------------------------------------------------------

fn encode_header(design: DesignHash, netlist: &Netlist) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(design.0);
    write_netlist(&mut w, netlist);
    let payload = w.into_bytes();
    let mut frame = Vec::with_capacity(payload.len() + JOURNAL_MAGIC.len() + 20);
    frame.extend_from_slice(JOURNAL_MAGIC);
    frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&payload);
    let checksum = fnv64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Validates the journal header at the start of `bytes`; returns the design,
/// its netlist and the header's total length. Unlike a snapshot frame, bytes
/// *after* the header are expected (the records).
fn parse_header(bytes: &[u8]) -> Result<(DesignHash, Netlist, usize), PersistError> {
    let fixed = JOURNAL_MAGIC.len() + 4 + 8;
    if bytes.len() < fixed + 8 {
        return Err(PersistError::Truncated);
    }
    if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version_bytes: [u8; 4] = bytes[8..12]
        .try_into()
        .map_err(|_| PersistError::Truncated)?;
    let version = u32::from_le_bytes(version_bytes);
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let len_bytes: [u8; 8] = bytes[12..20]
        .try_into()
        .map_err(|_| PersistError::Truncated)?;
    let payload_len: usize = u64::from_le_bytes(len_bytes)
        .try_into()
        .map_err(|_| PersistError::Truncated)?;
    let body_end = fixed
        .checked_add(payload_len)
        .ok_or(PersistError::Truncated)?;
    let header_len = body_end.checked_add(8).ok_or(PersistError::Truncated)?;
    if bytes.len() < header_len {
        return Err(PersistError::Truncated);
    }
    let checksum_bytes: [u8; 8] = bytes[body_end..header_len]
        .try_into()
        .map_err(|_| PersistError::Truncated)?;
    if fnv64(&bytes[..body_end]) != u64::from_le_bytes(checksum_bytes) {
        return Err(PersistError::ChecksumMismatch);
    }
    let mut r = Reader::new(&bytes[fixed..body_end]);
    let design = DesignHash(r.u64()?);
    let netlist = read_netlist(&mut r)?;
    if !r.is_done() {
        return Err(PersistError::Malformed("trailing bytes after header"));
    }
    if design_hash(&netlist) != design {
        return Err(PersistError::Malformed(
            "netlist does not reproduce the recorded design hash",
        ));
    }
    Ok((design, netlist, header_len))
}

// --- recovery ----------------------------------------------------------------

/// Recovers a journal from `bytes`: validates the header, then accepts
/// records until the first truncated, corrupt or malformed one — the longest
/// valid prefix wins, everything after it is reported as quarantined.
///
/// # Errors
///
/// Only for an unusable *header* (the file is not a journal, or its identity
/// block is itself torn — in which case no record was ever acknowledged, so
/// nothing of value is lost). A damaged record region is never an error.
pub fn recover_journal(bytes: &[u8]) -> Result<JournalReplay, PersistError> {
    let (design, netlist, header_len) = parse_header(bytes)?;
    let mut records = Vec::new();
    let mut offset = header_len;
    while let Some(rest) = bytes.get(offset..) {
        if rest.len() < 4 {
            break;
        }
        let len_bytes: [u8; 4] = match rest[..4].try_into() {
            Ok(b) => b,
            Err(_) => break,
        };
        let payload_len = u32::from_le_bytes(len_bytes) as usize;
        let Some(payload) = rest.get(4..4 + payload_len) else {
            break;
        };
        let Some(checksum_bytes) = rest.get(4 + payload_len..4 + payload_len + 8) else {
            break;
        };
        let stored = match <[u8; 8]>::try_from(checksum_bytes) {
            Ok(b) => u64::from_le_bytes(b),
            Err(_) => break,
        };
        if fnv64(payload) != stored {
            break;
        }
        let Ok(record) = decode_record(payload) else {
            break;
        };
        records.push(record);
        offset += 4 + payload_len + 8;
    }
    Ok(JournalReplay {
        design,
        netlist,
        records,
        valid_bytes: offset as u64,
        quarantined_bytes: (bytes.len() - offset) as u64,
    })
}

/// Reads and recovers a journal file. See [`recover_journal`].
///
/// # Errors
///
/// [`PersistError::Io`] when the file cannot be read, plus
/// [`recover_journal`]'s header errors.
pub fn read_journal(path: &Path) -> Result<JournalReplay, PersistError> {
    let bytes = fs::read(path)?;
    recover_journal(&bytes)
}

/// Truncates a recovered journal file down to its valid prefix, preserving
/// the rejected tail beside it for the operator. Boot-time companion of
/// [`read_journal`]: without it the quarantined bytes stay in the file,
/// inflating every size-based view of the journal (metadata fallbacks,
/// compaction triggers) until a writer happens to reopen it.
///
/// # Errors
///
/// [`PersistError::Io`] when the truncation cannot be made durable; the
/// valid prefix is untouched either way.
pub fn truncate_to_valid(path: &Path, replay: &JournalReplay) -> Result<(), PersistError> {
    if replay.quarantined_bytes == 0 {
        return Ok(());
    }
    let bytes = fs::read(path)?;
    if bytes.len() as u64 <= replay.valid_bytes {
        return Ok(());
    }
    quarantine_tail(path, &bytes[replay.valid_bytes as usize..]);
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(replay.valid_bytes)?;
    file.sync_all()?;
    Ok(())
}

// --- the writer --------------------------------------------------------------

/// What one append did: bytes written and, when this append crossed the
/// group-commit boundary, how long the fsync took.
#[derive(Debug, Clone, Copy)]
pub struct AppendReceipt {
    /// Bytes the record occupies on disk (prefix + payload + checksum).
    pub bytes: u64,
    /// Fsync latency when this append synced the batch; `None` when the
    /// record only reached the kernel.
    pub fsync: Option<Duration>,
}

/// An open, append-only journal for one design.
///
/// Opening an existing file recovers it first: the torn tail (if any) is
/// copied to `<file>.quarantine` and truncated away, so the writer always
/// appends after the last valid record. All writes go straight to the file
/// descriptor — after `append` returns, a process kill cannot lose the
/// record (the page cache survives); only power loss can, bounded by the
/// fsync batch. A new journal's header and directory entry become durable
/// with the writer's first sync, before any record it holds does.
pub struct JournalWriter {
    file: fs::File,
    path: PathBuf,
    len: u64,
    header_len: u64,
    appends_since_sync: u64,
    /// The file was created (or rewritten from its header) by this writer
    /// and its header and directory entry have not been fsynced yet.
    header_unsynced: bool,
    fsync_batch: u64,
    faults: FaultPlan,
    /// A torn append leaves unreconcilable bytes at the tail; the writer
    /// refuses further appends (durability degrades, serving continues)
    /// until a [`JournalWriter::reset`] truncates past the damage.
    wedged: bool,
}

impl JournalWriter {
    /// Opens (recovering, see the type docs) or creates the journal for
    /// `design` at `path`. The second return is the number of tail bytes
    /// quarantined during recovery — zero for a clean or fresh journal.
    ///
    /// A fresh header is written but not fsynced: no record exists yet, so
    /// nothing depends on it until the writer's first sync (the batch
    /// boundary in [`JournalWriter::append`], [`JournalWriter::flush`] or
    /// [`JournalWriter::reset`]), which fsyncs the file and then its
    /// directory.
    ///
    /// A file that exists but has an unusable header (not a journal, torn
    /// before the first append completed) is quarantined wholesale and
    /// recreated — by construction nothing in it was ever acknowledged.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on file-system failure.
    pub fn open(
        path: &Path,
        design: DesignHash,
        netlist: &Netlist,
        fsync_batch: u64,
        faults: FaultPlan,
    ) -> Result<(JournalWriter, u64), PersistError> {
        let fsync_batch = fsync_batch.max(1);
        let existing = match fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(PersistError::Io(e)),
        };
        let (header_len, valid_len, quarantined) = match existing {
            None => (0, 0, 0),
            Some(bytes) => match recover_journal(&bytes) {
                Ok(replay) if replay.design == design => {
                    if replay.quarantined_bytes > 0 {
                        quarantine_tail(path, &bytes[replay.valid_bytes as usize..]);
                    }
                    (
                        header_span(&bytes),
                        replay.valid_bytes,
                        replay.quarantined_bytes,
                    )
                }
                // Foreign design under our name, or an unusable header:
                // nothing in the file can belong to acknowledged work for
                // `design` — quarantine it all and start fresh.
                _ => {
                    quarantine_tail(path, &bytes);
                    (0, 0, bytes.len() as u64)
                }
            },
        };
        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let (len, header_len) = if valid_len == 0 {
            let header = encode_header(design, netlist);
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            (header.len() as u64, header.len() as u64)
        } else {
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
            if quarantined > 0 {
                file.sync_all()?;
            }
            (valid_len, header_len)
        };
        Ok((
            JournalWriter {
                file,
                path: path.to_path_buf(),
                len,
                header_len,
                appends_since_sync: 0,
                header_unsynced: valid_len == 0,
                fsync_batch,
                faults,
                wedged: false,
            },
            quarantined,
        ))
    }

    /// Appends one record (write-through to the descriptor, fsync every
    /// `fsync_batch`-th append). Fault sites: [`FaultSite::JournalAppend`]
    /// fails before any byte is written; [`FaultSite::JournalTorn`] writes
    /// half the frame and wedges the writer; [`FaultSite::CrashPoint`]
    /// aborts the process between the two halves of the frame.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on (injected or real) failure; the journal's
    /// valid prefix is untouched either way.
    pub fn append(&mut self, record: &JournalRecord) -> Result<AppendReceipt, PersistError> {
        if self.wedged {
            return Err(PersistError::Io(std::io::Error::other(
                "journal wedged by an earlier torn append",
            )));
        }
        let payload = encode_record(record)?;
        let frame = frame_record(&payload);
        if let Some(error) = self.faults.io_error(FaultSite::JournalAppend) {
            return Err(PersistError::Io(error));
        }
        if self.faults.should_fire(FaultSite::JournalTorn) {
            // Simulated kill mid-append: half a frame reaches the disk and
            // stays there. The writer wedges — appending *after* a tear
            // would bury acknowledged-looking records behind garbage that
            // recovery rightly stops at.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_all();
            self.wedged = true;
            return Err(PersistError::Io(std::io::Error::other(
                "injected fault: journal_torn",
            )));
        }
        let half = frame.len() / 2;
        self.file.write_all(&frame[..half])?;
        // Injected hard kill at an exact mid-record offset: the crash-matrix
        // suite arms this in a subprocess; the half frame above is already
        // in the kernel, producing a real torn tail for recovery to face.
        self.faults.crash_point(FaultSite::CrashPoint);
        self.file.write_all(&frame[half..])?;
        self.len += frame.len() as u64;
        self.appends_since_sync += 1;
        let fsync = if self.appends_since_sync >= self.fsync_batch {
            let start = Instant::now();
            self.sync()?;
            Some(start.elapsed())
        } else {
            None
        };
        Ok(AppendReceipt {
            bytes: frame.len() as u64,
            fsync,
        })
    }

    /// Forces any batched records to disk now (shutdown, pre-compaction).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the sync fails.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        if self.appends_since_sync > 0 || self.header_unsynced {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs the file, then, for a journal this writer created, its
    /// directory entry.
    fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_all()?;
        if self.header_unsynced {
            sync_parent_dir(&self.path)?;
            self.header_unsynced = false;
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Compaction: a snapshot now holds everything, so truncate back to the
    /// header. Also clears a wedge — the damage is truncated away with the
    /// records.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the truncation cannot be made durable.
    pub fn reset(&mut self) -> Result<(), PersistError> {
        self.file.set_len(self.header_len)?;
        self.file.seek(SeekFrom::Start(self.header_len))?;
        self.sync()?;
        self.len = self.header_len;
        self.wedged = false;
        Ok(())
    }

    /// Current on-disk length of the valid journal (header + records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the journal holds no records beyond its header.
    pub fn is_empty(&self) -> bool {
        self.len == self.header_len
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Length of the valid header at the start of `bytes` (0 when unusable) —
/// recovery helper for [`JournalWriter::open`].
fn header_span(bytes: &[u8]) -> u64 {
    parse_header(bytes)
        .map(|(_, _, len)| len as u64)
        .unwrap_or(0)
}

/// Removes a design's journal once a successful snapshot made it redundant:
/// the no-open-writer arm of [`JournalSink::reset`] (a journal only replayed
/// at boot would otherwise be replayed at every boot, never shrinking).
/// Returns `false` when an existing file could not be durably removed.
fn remove_stale_journal(dir: &Path, design: DesignHash) -> bool {
    let path = dir.join(journal_file_name(design));
    match fs::remove_file(&path) {
        Ok(()) => sync_parent_dir(&path).is_ok(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
        Err(_) => false,
    }
}

/// Best-effort preservation of damaged bytes beside the journal, for the
/// operator: recovery decisions never depend on it.
fn quarantine_tail(path: &Path, tail: &[u8]) {
    let Some(file_name) = path.file_name() else {
        return;
    };
    let side = path.with_file_name(format!("{}.quarantine", file_name.to_string_lossy()));
    let _ = fs::write(side, tail);
}

// --- the sink ----------------------------------------------------------------

enum SinkSlot {
    Open(JournalWriter),
    /// The journal could not be opened (or re-opened); durability for this
    /// design is degraded until a compaction or restart. Serving continues.
    Broken,
}

/// One design's sink state: the writer slot plus an append sequence that
/// lets compaction detect records landing while a snapshot was exported.
struct SinkEntry {
    /// Count of append *attempts* for this design in this process (attempts,
    /// not successes: even a failed append may have torn bytes onto disk).
    /// Starts at 1 on the first record, so a token of 0 unambiguously means
    /// "no append was ever attempted".
    seq: u64,
    slot: SinkSlot,
}

/// The [`DurabilitySink`] implementation: one [`JournalWriter`] per design,
/// opened lazily on the design's first completed race, with shared fault
/// injection and telemetry.
///
/// Failures never propagate into job processing: an append that fails is
/// counted (`persist_journal_append_failures_total`) and logged, and the
/// service keeps answering — durability degrades, serving does not.
pub struct JournalSink {
    dir: PathBuf,
    fsync_batch: u64,
    faults: FaultPlan,
    metrics: Arc<MetricsRegistry>,
    recorder: RecorderHandle,
    writers: Mutex<HashMap<DesignHash, SinkEntry>>,
}

impl JournalSink {
    /// A sink journaling into `dir`, fsyncing every `fsync_batch`-th append
    /// per design (clamped to at least 1; 1 fsyncs every append). It counts
    /// into a private registry until [`JournalSink::with_metrics`] shares
    /// one.
    pub fn new(dir: &Path, fsync_batch: u64, faults: FaultPlan) -> Self {
        JournalSink {
            dir: dir.to_path_buf(),
            fsync_batch: fsync_batch.max(1),
            faults,
            metrics: Arc::default(),
            recorder: RecorderHandle::disabled(),
            writers: Mutex::new(HashMap::new()),
        }
    }

    /// Publishes append/byte counters and the fsync-latency histogram into
    /// `registry`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// Emits journal lifecycle events (appends, quarantines, resets) into
    /// the always-on flight recorder.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Bytes the design's journal currently occupies (header included) — the
    /// server's compaction trigger. Falls back to file metadata when no
    /// writer is open (e.g. only boot-replayed so far).
    pub fn journal_bytes(&self, design: DesignHash) -> u64 {
        let writers = self.writers.lock_recover();
        match writers.get(&design).map(|entry| &entry.slot) {
            Some(SinkSlot::Open(writer)) => writer.len(),
            _ => fs::metadata(self.dir.join(journal_file_name(design)))
                .map(|m| m.len())
                .unwrap_or(0),
        }
    }

    /// Forces every open journal's batched records to disk (graceful
    /// shutdown) and returns how many journals had records to sync.
    /// Failures are counted, not propagated.
    pub fn flush_all(&self) -> usize {
        let mut writers = self.writers.lock_recover();
        let mut synced = 0;
        for entry in writers.values_mut() {
            if let SinkSlot::Open(writer) = &mut entry.slot {
                if writer.appends_since_sync == 0 {
                    continue;
                }
                match writer.flush() {
                    Ok(()) => synced += 1,
                    Err(_) => self.count_failure(),
                }
            }
        }
        synced
    }

    /// The design's current append progress, for [`JournalSink::reset`]:
    /// capture it *before* exporting the state a compacting snapshot will
    /// persist, so records appended while the snapshot was assembled or
    /// written (which that snapshot cannot contain) are detected and kept.
    /// A token of 0 means no append was ever attempted in this process.
    pub fn append_token(&self, design: DesignHash) -> u64 {
        self.writers
            .lock_recover()
            .get(&design)
            .map_or(0, |entry| entry.seq)
    }

    /// Compaction hand-off: after a successful snapshot of `design`,
    /// truncates its journal back to header-only (or deletes the file when
    /// no writer is open — the snapshot supersedes it either way) **iff** no
    /// append was attempted since `token` was captured. Returns `false` when
    /// appends raced the snapshot or the truncation failed; the journal then
    /// simply stays — replay is idempotent over the new snapshot, and the
    /// next threshold crossing retries the compaction.
    pub fn reset(&self, design: DesignHash, token: u64) -> bool {
        let mut writers = self.writers.lock_recover();
        // The lock serializes this check-and-truncate against `record`, so a
        // record observed here as "not yet appended" cannot land before the
        // truncation below.
        if writers.get(&design).map_or(0, |entry| entry.seq) != token {
            return false;
        }
        match writers.get_mut(&design).map(|entry| &mut entry.slot) {
            Some(SinkSlot::Open(writer)) => {
                let discarded = writer.len();
                let ok = writer.reset().is_ok();
                if ok {
                    self.recorder.record(
                        RecorderLayer::Persist,
                        RecorderKind::Compact,
                        discarded,
                        0,
                    );
                }
                ok
            }
            _ => remove_stale_journal(&self.dir, design),
        }
    }

    fn count_failure(&self) {
        self.metrics
            .counter("persist_journal_append_failures_total")
            .inc();
    }
}

impl DurabilitySink for JournalSink {
    fn record(&self, record: &DurabilityRecord<'_>) {
        let journal_record = JournalRecord {
            verdict: record.verdict.clone(),
            clauses: record.clauses.to_vec(),
            estg_delta: Vec::new(),
            ran: record.ran.to_vec(),
            winner: record.winner,
        };
        let mut writers = self.writers.lock_recover();
        let entry = writers.entry(record.design).or_insert_with(|| {
            let path = self.dir.join(journal_file_name(record.design));
            let slot = match JournalWriter::open(
                &path,
                record.design,
                record.netlist,
                self.fsync_batch,
                self.faults.clone(),
            ) {
                Ok((writer, quarantined)) => {
                    if quarantined > 0 {
                        self.metrics
                            .counter("persist_journal_quarantined_bytes_total")
                            .add(quarantined);
                        self.recorder.record(
                            RecorderLayer::Persist,
                            RecorderKind::Fault,
                            quarantined,
                            0,
                        );
                        eprintln!(
                            "wlac-persist: quarantined {quarantined} torn byte(s) reopening {}",
                            path.display()
                        );
                    }
                    SinkSlot::Open(writer)
                }
                Err(error) => {
                    eprintln!(
                        "wlac-persist: cannot open journal {}: {error} (durability degraded)",
                        path.display()
                    );
                    SinkSlot::Broken
                }
            };
            SinkEntry { seq: 0, slot }
        });
        entry.seq += 1;
        match &mut entry.slot {
            SinkSlot::Broken => self.count_failure(),
            SinkSlot::Open(writer) => match writer.append(&journal_record) {
                Ok(receipt) => {
                    let metrics = &self.metrics;
                    metrics.counter("persist_journal_appends_total").inc();
                    metrics
                        .counter("persist_journal_bytes_written_total")
                        .add(receipt.bytes);
                    if let Some(fsync) = receipt.fsync {
                        metrics
                            .histogram("persist_journal_fsync_ns")
                            .record(fsync.as_nanos() as u64);
                    }
                    self.recorder.record(
                        RecorderLayer::Persist,
                        RecorderKind::Append,
                        receipt.bytes,
                        writer.len(),
                    );
                }
                Err(error) => {
                    self.count_failure();
                    eprintln!(
                        "wlac-persist: journal append failed for {}: {error} (durability degraded)",
                        record.design
                    );
                }
            },
        }
    }
}
