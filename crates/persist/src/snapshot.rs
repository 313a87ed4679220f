//! Snapshot encoding/decoding and atomic file i/o.

use crate::format::{seal, unseal, PersistError, Reader, Writer};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use wlac_atpg::Trace;
use wlac_baselines::{FrameClause, FrameLit};
use wlac_bv::Bv;
use wlac_faultinject::{FaultPlan, FaultSite};
use wlac_netlist::{GateInputs, GateKind, NetId, Netlist};
use wlac_portfolio::{Engine, Verdict};
use wlac_service::{design_hash, DesignHash, KnowledgeBase, PropertyHash, VerdictRecord};

/// One design's durable state: the canonical netlist (so a restarted server
/// can re-register the design without any client round-trip), its design
/// binding, and the cached verdicts.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The canonical netlist; its [`design_hash`] must match the knowledge
    /// base's binding (checked on load).
    pub netlist: Netlist,
    /// The design binding, written as the snapshot's design hash.
    pub knowledge: KnowledgeBase,
    /// Cached (always definitive) verdicts of this design.
    pub verdicts: Vec<VerdictRecord>,
}

/// Canonical snapshot file name for a design: `d<hash>.wlacsnap`.
pub fn snapshot_file_name(design: DesignHash) -> String {
    format!("{design}.wlacsnap")
}

/// Name of the last-good backup kept beside a design's snapshot:
/// `d<hash>.wlacsnap.bak`. Written by [`save_snapshot`] just before the new
/// frame is published, so a snapshot corrupted later (torn write, disk
/// fault) still leaves one older-but-valid generation to boot from.
pub fn backup_file_name(design: DesignHash) -> String {
    format!("{design}.wlacsnap.bak")
}

// --- encoding ----------------------------------------------------------------

fn write_bv(w: &mut Writer, value: &Bv) {
    w.usize(value.width());
    for word in value.words() {
        w.u64(*word);
    }
}

fn read_bv(r: &mut Reader<'_>) -> Result<Bv, PersistError> {
    let width = r.scalar()?;
    if width == 0 {
        return Err(PersistError::Malformed("zero-width value"));
    }
    let words = width.div_ceil(64);
    if words * 8 > 1 << 20 {
        return Err(PersistError::Malformed("value impossibly wide"));
    }
    let mut buf = Vec::with_capacity(words);
    for _ in 0..words {
        buf.push(r.u64()?);
    }
    Ok(Bv::from_words(width, &buf))
}

/// A gate kind as its [`GateKind::tag`] (the numbering the design hash
/// uses too), followed by its payload, if it has one.
fn write_gate_kind(w: &mut Writer, kind: &GateKind) {
    w.u8(kind.tag());
    match kind {
        GateKind::Const(v) => write_bv(w, v),
        GateKind::Slice { lo } => w.usize(*lo),
        GateKind::Dff { init } => match init {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                write_bv(w, v);
            }
        },
        _ => {}
    }
}

fn read_gate_kind(r: &mut Reader<'_>) -> Result<GateKind, PersistError> {
    Ok(match r.u8()? {
        GateKind::CONST_TAG => GateKind::Const(read_bv(r)?),
        GateKind::SLICE_TAG => GateKind::Slice { lo: r.scalar()? },
        GateKind::DFF_TAG => GateKind::Dff {
            init: if r.bool()? { Some(read_bv(r)?) } else { None },
        },
        tag => GateKind::payload_free_from_tag(tag)
            .ok_or(PersistError::Malformed("unknown gate kind"))?,
    })
}

pub(crate) fn write_netlist(w: &mut Writer, netlist: &Netlist) {
    w.str(netlist.name());
    w.usize(netlist.net_count());
    for net in netlist.nets() {
        w.usize(netlist.net_width(net));
        match netlist.net_name(net) {
            Some(name) => {
                w.bool(true);
                w.str(name);
            }
            None => w.bool(false),
        }
    }
    w.usize(netlist.inputs().len());
    for input in netlist.inputs() {
        w.usize(input.index());
    }
    w.usize(netlist.gate_count());
    for (_, gate) in netlist.gates() {
        write_gate_kind(w, &gate.kind);
        w.usize(gate.inputs.len());
        for input in gate.inputs.iter() {
            w.usize(input.index());
        }
        w.usize(gate.output.index());
    }
    w.usize(netlist.outputs().len());
    for (name, net) in netlist.outputs() {
        w.str(name);
        w.usize(net.index());
    }
}

fn read_net_id(r: &mut Reader<'_>, net_count: usize) -> Result<NetId, PersistError> {
    let index = r.scalar()?;
    if index >= net_count {
        return Err(PersistError::Malformed("net id out of range"));
    }
    Ok(NetId::from_index(index))
}

/// Rebuilds the netlist through the ordinary constructors, re-running every
/// gate shape validation — a snapshot can describe an ill-typed circuit only
/// if the builder itself would accept it.
pub(crate) fn read_netlist(r: &mut Reader<'_>) -> Result<Netlist, PersistError> {
    let name = r.str()?;
    let mut netlist = Netlist::new(name);
    let net_count = r.len(9)?;
    for _ in 0..net_count {
        let width = r.scalar()?;
        if width == 0 || width > 1 << 20 {
            return Err(PersistError::Malformed("net width out of range"));
        }
        let name = if r.bool()? { Some(r.str()?) } else { None };
        netlist.add_named_net(width, name);
    }
    let input_count = r.len(8)?;
    let mut is_input = vec![false; net_count];
    for _ in 0..input_count {
        let net = read_net_id(r, net_count)?;
        netlist.mark_input(net);
        is_input[net.index()] = true;
    }
    let gate_count = r.len(2)?;
    for _ in 0..gate_count {
        let kind = read_gate_kind(r)?;
        let pin_count = r.len(8)?;
        let mut inputs = GateInputs::new();
        for _ in 0..pin_count {
            inputs.push(read_net_id(r, net_count)?);
        }
        let output = read_net_id(r, net_count)?;
        if netlist.driver(output).is_some() || is_input[output.index()] {
            return Err(PersistError::Malformed("net driven twice"));
        }
        netlist
            .add_gate(kind, inputs, output)
            .map_err(|_| PersistError::Malformed("ill-shaped gate"))?;
    }
    let output_count = r.len(9)?;
    for _ in 0..output_count {
        let name = r.str()?;
        let net = read_net_id(r, net_count)?;
        netlist.mark_output(name, net);
    }
    Ok(netlist)
}

/// Frame clauses in the layout snapshots and journal records share. The
/// server writes the section empty; files from earlier servers carry SAT-BMC
/// clauses, which the server reads and drops.
pub(crate) fn write_clauses(w: &mut Writer, clauses: &[FrameClause]) {
    w.usize(clauses.len());
    for clause in clauses {
        w.u32(clause.depth);
        w.usize(clause.lits.len());
        for lit in &clause.lits {
            w.u32(lit.frame);
            w.usize(lit.net.index());
            w.u32(lit.bit);
            w.bool(lit.negated);
        }
    }
}

pub(crate) fn read_clauses(r: &mut Reader<'_>) -> Result<Vec<FrameClause>, PersistError> {
    let clause_count = r.len(12)?;
    let mut clauses = Vec::with_capacity(clause_count);
    for _ in 0..clause_count {
        let depth = r.u32()?;
        let lit_count = r.len(17)?;
        let mut lits = Vec::with_capacity(lit_count);
        for _ in 0..lit_count {
            lits.push(FrameLit {
                frame: r.u32()?,
                net: NetId::from_index(r.scalar()?),
                bit: r.u32()?,
                negated: r.bool()?,
            });
        }
        clauses.push(FrameClause { depth, lits });
    }
    Ok(clauses)
}

/// ESTG conflict counts `(net, value, count)` in the layout snapshots and
/// journal records share. Current writers leave the section empty; files
/// from earlier servers carry entries, which decoders read and drop.
pub(crate) fn write_estg(w: &mut Writer, entries: &[(NetId, bool, u64)]) {
    w.usize(entries.len());
    for &(net, value, count) in entries {
        w.usize(net.index());
        w.bool(value);
        w.u64(count);
    }
}

pub(crate) fn read_estg(r: &mut Reader<'_>) -> Result<Vec<(NetId, bool, u64)>, PersistError> {
    let estg_count = r.len(10)?;
    let mut entries = Vec::with_capacity(estg_count);
    for _ in 0..estg_count {
        let net = NetId::from_index(r.scalar()?);
        let value = r.bool()?;
        entries.push((net, value, r.u64()?));
    }
    Ok(entries)
}

/// Engine-history counts (three wins, three runs) that follow a knowledge
/// base's ESTG section.
const HISTORY_COUNTS: usize = 6;

/// The knowledge sections: a clause section, an ESTG section and six
/// engine-history counts. The service keeps no SAT clauses, no ESTG across
/// checks and no engine history any more, so both sections are written
/// empty and the counts as zeros; they stay in the layout so that files of
/// every version decode alike.
fn write_knowledge(w: &mut Writer) {
    write_clauses(w, &[]);
    write_estg(w, &[]);
    for _ in 0..HISTORY_COUNTS {
        w.u64(0);
    }
}

/// Reads the knowledge sections and drops them: earlier servers wrote SAT
/// clauses, ATPG conflict counts and engine-history counts here, which
/// read as well as ever and are not validated, since nothing uses them.
fn read_knowledge(r: &mut Reader<'_>) -> Result<(), PersistError> {
    read_clauses(r)?;
    read_estg(r)?;
    for _ in 0..HISTORY_COUNTS {
        r.u64()?;
    }
    Ok(())
}

fn write_trace(w: &mut Writer, trace: &Trace) {
    w.usize(trace.initial_state.len());
    for (net, value) in &trace.initial_state {
        w.usize(net.index());
        write_bv(w, value);
    }
    w.usize(trace.inputs.len());
    for cycle in &trace.inputs {
        w.usize(cycle.len());
        for (net, value) in cycle {
            w.usize(net.index());
            write_bv(w, value);
        }
    }
}

fn read_trace(r: &mut Reader<'_>) -> Result<Trace, PersistError> {
    let read_pairs = |r: &mut Reader<'_>| -> Result<Vec<(NetId, Bv)>, PersistError> {
        let count = r.len(16)?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let net = NetId::from_index(r.scalar()?);
            pairs.push((net, read_bv(r)?));
        }
        Ok(pairs)
    };
    let initial_state = read_pairs(r)?;
    let cycle_count = r.len(8)?;
    let mut inputs = Vec::with_capacity(cycle_count);
    for _ in 0..cycle_count {
        inputs.push(read_pairs(r)?);
    }
    Ok(Trace {
        initial_state,
        inputs,
    })
}

fn write_verdict(w: &mut Writer, verdict: &Verdict) -> Result<(), PersistError> {
    match verdict {
        Verdict::Holds { proved, frames } => {
            w.u8(0);
            w.bool(*proved);
            w.usize(*frames);
        }
        Verdict::Violated { trace } => {
            w.u8(1);
            write_trace(w, trace);
        }
        Verdict::WitnessFound { trace } => {
            w.u8(2);
            write_trace(w, trace);
        }
        Verdict::WitnessAbsent { frames } => {
            w.u8(3);
            w.usize(*frames);
        }
        Verdict::Unknown { .. } | Verdict::Timeout { .. } => {
            return Err(PersistError::Malformed(
                "non-definitive verdicts are never persisted",
            ))
        }
    }
    Ok(())
}

fn read_verdict(r: &mut Reader<'_>) -> Result<Verdict, PersistError> {
    Ok(match r.u8()? {
        0 => Verdict::Holds {
            proved: r.bool()?,
            frames: r.scalar()?,
        },
        1 => Verdict::Violated {
            trace: read_trace(r)?,
        },
        2 => Verdict::WitnessFound {
            trace: read_trace(r)?,
        },
        3 => Verdict::WitnessAbsent {
            frames: r.scalar()?,
        },
        _ => return Err(PersistError::Malformed("unknown verdict tag")),
    })
}

/// A cached verdict in the layout snapshots and journal records share.
pub(crate) fn write_verdict_record(
    w: &mut Writer,
    record: &VerdictRecord,
) -> Result<(), PersistError> {
    w.u64(record.property.0);
    w.u64(record.config);
    w.u8(record.winner.map(Engine::code).unwrap_or(u8::MAX));
    write_verdict(w, &record.verdict)
}

pub(crate) fn read_verdict_record(r: &mut Reader<'_>) -> Result<VerdictRecord, PersistError> {
    let property = PropertyHash(r.u64()?);
    let config = r.u64()?;
    let winner = read_engine(r.u8()?)?;
    Ok(VerdictRecord {
        property,
        config,
        verdict: read_verdict(r)?,
        winner,
    })
}

/// An optional engine from its one-byte code (`u8::MAX` for none).
pub(crate) fn read_engine(code: u8) -> Result<Option<Engine>, PersistError> {
    if code == u8::MAX {
        return Ok(None);
    }
    Engine::from_code(code)
        .map(Some)
        .ok_or(PersistError::Malformed("unknown engine code"))
}

fn encode(snapshot: &Snapshot) -> Result<Vec<u8>, PersistError> {
    let mut w = Writer::new();
    w.u64(snapshot.knowledge.design().0);
    write_netlist(&mut w, &snapshot.netlist);
    write_knowledge(&mut w);
    w.usize(snapshot.verdicts.len());
    for record in &snapshot.verdicts {
        write_verdict_record(&mut w, record)?;
    }
    Ok(w.into_bytes())
}

fn decode(payload: &[u8]) -> Result<Snapshot, PersistError> {
    let mut r = Reader::new(payload);
    let design = DesignHash(r.u64()?);
    let netlist = read_netlist(&mut r)?;
    if design_hash(&netlist) != design {
        return Err(PersistError::Malformed(
            "netlist does not reproduce the recorded design hash",
        ));
    }
    read_knowledge(&mut r)?;
    let verdict_count = r.len(17)?;
    let mut verdicts = Vec::with_capacity(verdict_count);
    for _ in 0..verdict_count {
        verdicts.push(read_verdict_record(&mut r)?);
    }
    if !r.is_done() {
        return Err(PersistError::Malformed("trailing bytes after snapshot"));
    }
    Ok(Snapshot {
        netlist,
        knowledge: KnowledgeBase::new(design),
        verdicts,
    })
}

/// Encodes a snapshot as a complete sealed frame (header + payload +
/// checksum) — the same bytes [`save_snapshot`] writes. Used when a snapshot
/// travels over a transport other than the file system (e.g. the network
/// server's `export_knowledge`).
///
/// # Errors
///
/// [`PersistError::Malformed`] when the snapshot contains a non-persistable
/// (non-definitive) verdict.
pub fn encode_snapshot(snapshot: &Snapshot) -> Result<Vec<u8>, PersistError> {
    Ok(seal(encode(snapshot)?))
}

/// Validates and decodes a sealed frame produced by [`encode_snapshot`] /
/// [`save_snapshot`].
///
/// # Errors
///
/// Any [`PersistError`]; nothing about the input is trusted.
pub fn decode_snapshot(frame: &[u8]) -> Result<Snapshot, PersistError> {
    decode(unseal(frame)?)
}

// --- file i/o ----------------------------------------------------------------

/// Writes a snapshot atomically: the frame goes to a temporary file in the
/// target directory, is flushed to disk, and is renamed over `path`. A crash
/// at any point leaves either the old snapshot or no file under `path` —
/// never a partial one.
///
/// # Errors
///
/// [`PersistError::Io`] on file-system failure (the temporary file is
/// cleaned up best-effort), [`PersistError::Malformed`] when the snapshot
/// contains a non-persistable (non-definitive) verdict.
pub fn save_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), PersistError> {
    save_snapshot_faulted(path, snapshot, &FaultPlan::disabled())
}

/// [`save_snapshot`] with a fault-injection plan threaded through: a
/// [`FaultSite::SnapshotWrite`] rule fails the save outright (as a disk
/// would), a [`FaultSite::SnapshotTorn`] rule simulates a kill mid-write —
/// half a frame is left in the temporary file, *nothing* is cleaned up, and
/// the previously published snapshot under `path` is untouched. The disabled
/// plan makes this exactly [`save_snapshot`].
///
/// # Errors
///
/// As [`save_snapshot`], plus the injected failures (reported as
/// [`PersistError::Io`]).
pub fn save_snapshot_faulted(
    path: &Path,
    snapshot: &Snapshot,
    faults: &FaultPlan,
) -> Result<(), PersistError> {
    // Unique per save, not just per process: concurrent saves of the same
    // design (two server threads autosaving after their batches) must not
    // share a temp file, or one thread's rename could publish the other's
    // half-written frame. With distinct temp files the last complete rename
    // wins and every published frame is whole.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let frame = encode_snapshot(snapshot)?;
    let file_name = path
        .file_name()
        .ok_or(PersistError::Malformed("snapshot path has no file name"))?
        .to_string_lossy()
        .into_owned();
    if let Some(error) = faults.io_error(FaultSite::SnapshotWrite) {
        return Err(PersistError::Io(error));
    }
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp{}.{}",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    if faults.should_fire(FaultSite::SnapshotTorn) {
        // Simulated kill -9 mid-write: half a frame hits the disk, then the
        // process is gone — no cleanup, no rename, the published snapshot
        // survives untouched. `clean_stale_temp_files` sweeps the debris on
        // the next boot.
        let torn = &frame[..frame.len() / 2];
        let mut file = fs::File::create(&tmp)?;
        file.write_all(torn)?;
        file.sync_all()?;
        return Err(PersistError::Io(std::io::Error::other(
            "injected fault: snapshot_torn",
        )));
    }
    let result = (|| -> Result<(), PersistError> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&frame)?;
        file.sync_all()?;
        // Keep the previous generation as the last-good backup before
        // publishing the new one; a later corruption of `path` then still
        // has somewhere to fall back to.
        if path.exists() {
            let backup = path.with_file_name(format!("{file_name}.bak"));
            fs::copy(path, &backup).ok();
        }
        fs::rename(&tmp, path)?;
        // The rename (and the `.bak` promotion) are directory-entry updates:
        // until the directory itself reaches the disk, a power loss can make
        // a "published" snapshot vanish even though its data blocks were
        // synced. One directory fsync after the rename covers both entries;
        // a snapshot is only reported saved once it would survive the plug
        // being pulled.
        sync_parent_dir(path)?;
        Ok(())
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// Writes `bytes` to `path` atomically with the same temp + `write_all` +
/// `sync_all` + rename + parent-directory-fsync discipline as
/// [`save_snapshot`] (minus the `.bak` generation): a crash at any point
/// leaves either the old file or no file under `path`, never a partial one.
/// Exposed for other durable artifacts — the server's post-mortem dumps
/// reuse it so a crash while dumping a crash cannot corrupt the evidence.
///
/// # Errors
///
/// [`std::io::Error`] on file-system failure (the temporary file is cleaned
/// up best-effort) or when `path` has no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| -> std::io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// Fsyncs the directory containing `path`, making its entry updates (rename,
/// create, truncate) power-loss durable. A no-op error on platforms where
/// directories cannot be opened for sync is not swallowed: durability the
/// caller cannot rely on must be reported, not pretended.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

/// Removes stale snapshot temp files (`.{name}.tmp{pid}.{seq}` debris from
/// writers that died mid-save) under `dir`, returning how many were removed.
/// Call on boot, before scanning for snapshots.
///
/// # Errors
///
/// [`std::io::Error`] when the directory itself cannot be read; failure to
/// remove an individual file is ignored (it will be retried next boot).
pub fn clean_stale_temp_files(dir: &Path) -> std::io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.')
            && name.contains(".wlacsnap.tmp")
            && entry.path().is_file()
            && fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Reads and fully validates a snapshot file. See the crate docs for the
/// validation layers; everything this returns has at least passed the
/// checksum, the bounds-checked decode, the netlist shape checks and the
/// design-hash reproduction check.
///
/// # Errors
///
/// Any [`PersistError`]; the caller should treat every variant as "this
/// snapshot does not exist" and fall back to a cold start.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, PersistError> {
    let frame = fs::read(path)?;
    decode(unseal(&frame)?)
}

/// [`load_snapshot`] with degraded-mode recovery: when the primary file is
/// missing or fails any validation layer, the last-good backup
/// (`<path>.bak`, kept by [`save_snapshot`]) is tried before giving up. The
/// `bool` is `true` when the snapshot came from the backup — the caller
/// should log it and count it, because it means the primary was lost.
///
/// # Errors
///
/// The *primary's* error when both generations fail — that is the file the
/// operator should investigate.
pub fn load_snapshot_with_fallback(path: &Path) -> Result<(Snapshot, bool), PersistError> {
    let primary = match load_snapshot(path) {
        Ok(snapshot) => return Ok((snapshot, false)),
        Err(error) => error,
    };
    let Some(file_name) = path.file_name() else {
        return Err(primary);
    };
    let backup = path.with_file_name(format!("{}.bak", file_name.to_string_lossy()));
    match load_snapshot(&backup) {
        Ok(snapshot) => Ok((snapshot, true)),
        Err(_) => Err(primary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_snapshot_is_written_with_empty_knowledge_sections() {
        let mut netlist = Netlist::new("t");
        let a = netlist.input("a", 4);
        netlist.mark_output("a", a);
        let design = design_hash(&netlist);
        let knowledge = KnowledgeBase::new(design);
        let frame = encode_snapshot(&Snapshot {
            netlist,
            knowledge,
            verdicts: Vec::new(),
        })
        .unwrap();
        // Walk the payload to the sections: design, netlist, clauses, ESTG.
        let mut r = Reader::new(unseal(&frame).unwrap());
        assert_eq!(r.u64().unwrap(), design.0);
        read_netlist(&mut r).unwrap();
        assert!(read_clauses(&mut r).unwrap().is_empty());
        assert!(read_estg(&mut r).unwrap().is_empty());
    }

    /// A sealed snapshot of a netlist the builder refuses to make: nets of
    /// `widths` with net 0 the only primary input, and `gates` as
    /// `(kind, pins, output)` in order.
    fn forged_frame(widths: &[usize], gates: &[(GateKind, &[usize], usize)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(0); // the design hash: the netlist fails to decode first
        w.str("forged");
        w.usize(widths.len());
        for &width in widths {
            w.usize(width);
            w.bool(false);
        }
        w.usize(1);
        w.usize(0);
        w.usize(gates.len());
        for (kind, pins, output) in gates {
            write_gate_kind(&mut w, kind);
            w.usize(pins.len());
            for &pin in *pins {
                w.usize(pin);
            }
            w.usize(*output);
        }
        w.usize(0); // no primary outputs
        write_knowledge(&mut w);
        w.usize(0); // no verdicts
        seal(w.into_bytes())
    }

    fn malformed(frame: &[u8]) -> &'static str {
        match decode_snapshot(frame) {
            Err(PersistError::Malformed(why)) => why,
            other => panic!("expected a malformed snapshot, got {other:?}"),
        }
    }

    #[test]
    fn a_gate_driving_a_primary_input_is_rejected() {
        let frame = forged_frame(&[4, 4], &[(GateKind::Not, &[1], 0)]);
        assert_eq!(malformed(&frame), "net driven twice");
    }

    #[test]
    fn two_gates_driving_one_net_are_rejected() {
        let frame = forged_frame(
            &[4, 4],
            &[(GateKind::Not, &[0], 1), (GateKind::Buf, &[0], 1)],
        );
        assert_eq!(malformed(&frame), "net driven twice");
    }

    #[test]
    fn an_ill_shaped_gate_is_rejected() {
        // A unary gate whose output is wider than its input.
        let frame = forged_frame(&[4, 8], &[(GateKind::Not, &[0], 1)]);
        assert_eq!(malformed(&frame), "ill-shaped gate");
    }
}
