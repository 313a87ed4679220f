//! Write-ahead-journal contract tests: append/recover round-trips, torn-tail
//! quarantine (longest valid prefix wins, never a failure), compaction's
//! removal of the journal, fault-injected append failures, and a seeded
//! fuzz sweep over truncated / bit-flipped journals asserting valid-prefix
//! recovery with no panics.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wlac_baselines::{FrameClause, FrameLit};
use wlac_bv::Bv;
use wlac_faultinject::{FaultPlan, FaultSite};
use wlac_netlist::{NetId, Netlist};
use wlac_persist::{
    journal_file_name, read_journal, recover_journal, truncate_to_valid, JournalRecord,
    JournalSink, JournalWriter, PersistError,
};
use wlac_portfolio::{Engine, Verdict};
use wlac_rng::Rng64;
use wlac_service::{
    design_hash, DesignHash, DurabilityRecord, DurabilitySink, PropertyHash, VerdictRecord,
};
use wlac_telemetry::MetricsRegistry;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "wlac-journal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn entries(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.0)
            .expect("read temp dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

fn sample_netlist() -> Netlist {
    let mut nl = Netlist::new("journal_sample");
    let (q, ff) = nl.dff_deferred(8, Some(Bv::from_u64(8, 0)));
    let one = nl.constant(&Bv::from_u64(8, 1));
    let next = nl.add(q, one);
    nl.connect_dff_data(ff, next);
    let cap = nl.constant(&Bv::from_u64(8, 11));
    let ok = nl.lt(q, cap);
    nl.mark_output("ok", ok);
    nl
}

/// A distinct, recognisable record: the `seq` value is woven into every
/// field so a recovered prefix can be checked record by record.
fn sample_record(seq: u64) -> JournalRecord {
    JournalRecord {
        verdict: (!seq.is_multiple_of(3)).then(|| VerdictRecord {
            property: PropertyHash(0x1000 + seq),
            config: 0x42,
            verdict: Verdict::Holds {
                proved: false,
                frames: seq as usize + 1,
            },
            winner: Some(Engine::Atpg),
        }),
        clauses: vec![FrameClause {
            depth: seq as u32,
            lits: vec![FrameLit {
                frame: seq as u32,
                net: NetId::from_index(seq as usize % 5),
                bit: 0,
                negated: seq.is_multiple_of(2),
            }],
        }],
        estg_delta: vec![(NetId::from_index(1), true, seq + 1)],
        ran: vec![Engine::Atpg],
        winner: Some(Engine::Atpg),
    }
}

fn assert_same_record(got: &JournalRecord, want: &JournalRecord, context: &str) {
    match (&got.verdict, &want.verdict) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_eq!(g.property, w.property, "{context}: verdict property");
            assert_eq!(g.config, w.config, "{context}: verdict config");
            assert_eq!(g.verdict, w.verdict, "{context}: verdict");
            assert_eq!(g.winner, w.winner, "{context}: verdict winner");
        }
        _ => panic!("{context}: verdict presence differs"),
    }
    assert_eq!(got.clauses, want.clauses, "{context}: clauses");
    assert_eq!(got.estg_delta, want.estg_delta, "{context}: estg delta");
    assert_eq!(got.ran, want.ran, "{context}: ran");
    assert_eq!(got.winner, want.winner, "{context}: winner");
}

/// Writes a journal of `count` records and returns (path, per-record end
/// offsets including the header boundary at index 0).
fn build_journal(dir: &TempDir, count: u64) -> (PathBuf, DesignHash, Vec<u64>) {
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    let (mut writer, quarantined) =
        JournalWriter::open(&path, design, &netlist, 4, FaultPlan::disabled())
            .expect("open fresh journal");
    assert_eq!(quarantined, 0);
    let mut boundaries = vec![writer.len()];
    for seq in 0..count {
        writer.append(&sample_record(seq)).expect("append");
        boundaries.push(writer.len());
    }
    writer.flush().expect("flush");
    (path, design, boundaries)
}

#[test]
fn round_trip_preserves_every_record() {
    let dir = TempDir::new();
    let (path, design, boundaries) = build_journal(&dir, 5);
    assert_eq!(
        fs::metadata(&path).expect("metadata").len(),
        *boundaries.last().expect("boundary"),
        "writer length tracks the file"
    );
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.design, design);
    assert_eq!(design_hash(&replay.netlist), design);
    assert_eq!(replay.records.len(), 5);
    assert_eq!(replay.quarantined_bytes, 0);
    for (seq, record) in replay.records.iter().enumerate() {
        assert_same_record(record, &sample_record(seq as u64), &format!("record {seq}"));
    }
}

#[test]
fn reopen_appends_after_the_existing_records() {
    let dir = TempDir::new();
    let (path, design, _) = build_journal(&dir, 3);
    let netlist = sample_netlist();
    let (mut writer, quarantined) =
        JournalWriter::open(&path, design, &netlist, 4, FaultPlan::disabled()).expect("reopen");
    assert_eq!(quarantined, 0, "clean journal reopens without quarantine");
    writer.append(&sample_record(3)).expect("append");
    drop(writer);
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.records.len(), 4);
    assert_same_record(&replay.records[3], &sample_record(3), "appended record");
}

#[test]
fn a_fresh_writer_flushed_without_appends_is_a_header_only_journal() {
    // Opening defers the header's fsync to the first sync; a flush with no
    // record still makes the header durable.
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    let (mut writer, quarantined) =
        JournalWriter::open(&path, design, &netlist, 32, FaultPlan::disabled()).expect("open");
    assert_eq!(quarantined, 0);
    assert!(writer.is_empty());
    writer.flush().expect("flush");
    drop(writer);
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.design, design);
    assert_eq!(design_hash(&replay.netlist), design);
    assert!(replay.records.is_empty());
    assert_eq!(replay.quarantined_bytes, 0);
    assert_eq!(
        replay.valid_bytes,
        fs::metadata(&path).expect("metadata").len()
    );
}

#[test]
fn an_fsync_batch_of_one_syncs_the_first_append() {
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    let (mut writer, _) =
        JournalWriter::open(&path, design, &netlist, 1, FaultPlan::disabled()).expect("open");
    let receipt = writer.append(&sample_record(0)).expect("append");
    assert!(receipt.fsync.is_some(), "the first append is synced");
    drop(writer);
    let (_, quarantined) =
        JournalWriter::open(&path, design, &netlist, 1, FaultPlan::disabled()).expect("reopen");
    assert_eq!(quarantined, 0);
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.records.len(), 1);
    assert_same_record(&replay.records[0], &sample_record(0), "first record");
}

#[test]
fn truncation_recovers_the_longest_valid_prefix_at_every_length() {
    let dir = TempDir::new();
    let (path, _, boundaries) = build_journal(&dir, 4);
    let bytes = fs::read(&path).expect("read journal");
    let header_len = boundaries[0];
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        if (len as u64) < header_len {
            assert!(
                recover_journal(cut).is_err(),
                "a torn header (len {len}) must be an error — nothing was acknowledged"
            );
            continue;
        }
        let replay = recover_journal(cut).expect("recovery past the header never fails");
        // The valid prefix is the last record boundary at or below the cut.
        let expected = boundaries.iter().filter(|b| **b <= len as u64).count() - 1;
        assert_eq!(
            replay.records.len(),
            expected,
            "truncation to {len} bytes (boundaries {boundaries:?})"
        );
        assert_eq!(replay.valid_bytes, boundaries[expected]);
        assert_eq!(replay.quarantined_bytes, len as u64 - boundaries[expected]);
        for (seq, record) in replay.records.iter().enumerate() {
            assert_same_record(record, &sample_record(seq as u64), "prefix record");
        }
    }
}

#[test]
fn a_bit_flip_quarantines_from_its_record_onward() {
    let dir = TempDir::new();
    let (path, _, boundaries) = build_journal(&dir, 4);
    let bytes = fs::read(&path).expect("read journal");
    let header_len = boundaries[0] as usize;
    for byte in header_len..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0x10;
        let replay = recover_journal(&corrupt).expect("record damage is never a failure");
        // Recovery must keep every record before the damaged frame...
        let intact_before = boundaries.iter().filter(|b| **b <= byte as u64).count() - 1;
        assert!(
            replay.records.len() >= intact_before,
            "flip at {byte} lost records before the damage"
        );
        for (seq, record) in replay.records.iter().take(intact_before).enumerate() {
            assert_same_record(record, &sample_record(seq as u64), "record before flip");
        }
        // ...and must never hallucinate a record past the last boundary.
        assert!(replay.records.len() <= 4);
    }
}

#[test]
fn torn_append_wedges_the_journal_until_compaction() {
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    let faults = FaultPlan::new().fire_nth(FaultSite::JournalTorn, 2);
    let (mut writer, _) = JournalWriter::open(&path, design, &netlist, 1, faults).expect("open");
    writer.append(&sample_record(0)).expect("clean append");
    // The second append tears mid-frame.
    assert!(matches!(
        writer.append(&sample_record(1)),
        Err(PersistError::Io(_))
    ));
    // A wedged writer refuses to bury the tear under further appends.
    assert!(matches!(
        writer.append(&sample_record(2)),
        Err(PersistError::Io(_))
    ));
    // The file carries record 0 plus the torn half-frame; recovery
    // quarantines exactly the tear.
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.records.len(), 1);
    assert!(
        replay.quarantined_bytes > 0,
        "the torn half-frame is quarantined"
    );
    drop(writer);

    // Through the sink: the tear wedges the design's journal, compaction
    // removes it with the damage, and the next record starts a fresh one.
    let dir = TempDir::new();
    let path = dir.path(&journal_file_name(design));
    let metrics = Arc::new(MetricsRegistry::new());
    let faults = FaultPlan::new().fire_nth(FaultSite::JournalTorn, 2);
    let sink = JournalSink::new(&dir.0, 1, faults).with_metrics(Arc::clone(&metrics));
    for seq in 0..3 {
        emit_via_sink(&sink, &netlist, seq);
    }
    assert_eq!(
        metrics
            .counter("persist_journal_append_failures_total")
            .get(),
        2,
        "the torn append and the one refused after it"
    );
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.records.len(), 1);
    assert!(replay.quarantined_bytes > 0);
    assert!(sink.reset(design, sink.append_token(design)));
    assert!(!path.exists(), "compaction removes the torn journal");
    emit_via_sink(&sink, &netlist, 4);
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.records.len(), 1);
    assert_eq!(replay.quarantined_bytes, 0);
    assert_eq!(
        replay.records[0].verdict.as_ref().map(|v| v.property),
        sample_record(4).verdict.map(|v| v.property),
        "the fresh journal holds exactly the record after the compaction"
    );
}

#[test]
fn append_io_fault_fails_without_touching_the_file() {
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    let faults = FaultPlan::new().fire_nth(FaultSite::JournalAppend, 1);
    let (mut writer, _) = JournalWriter::open(&path, design, &netlist, 1, faults).expect("open");
    let clean_len = fs::metadata(&path).expect("metadata").len();
    assert!(matches!(
        writer.append(&sample_record(0)),
        Err(PersistError::Io(_))
    ));
    assert_eq!(
        fs::metadata(&path).expect("metadata").len(),
        clean_len,
        "a failed append writes nothing"
    );
    // The fault is exhausted; the writer is not wedged and serves on.
    writer.append(&sample_record(0)).expect("append");
    assert_eq!(read_journal(&path).expect("recover").records.len(), 1);
}

#[test]
fn reopening_a_torn_journal_quarantines_the_tail_to_a_side_file() {
    let dir = TempDir::new();
    let (path, design, boundaries) = build_journal(&dir, 3);
    // Tear the last record in half on disk, as a kill mid-append would.
    let bytes = fs::read(&path).expect("read journal");
    let torn_len = (boundaries[2] + (boundaries[3] - boundaries[2]) / 2) as usize;
    fs::write(&path, &bytes[..torn_len]).expect("tear");

    let netlist = sample_netlist();
    let (mut writer, quarantined) =
        JournalWriter::open(&path, design, &netlist, 4, FaultPlan::disabled())
            .expect("reopen torn journal");
    assert_eq!(
        quarantined,
        torn_len as u64 - boundaries[2],
        "exactly the torn tail is quarantined"
    );
    let side = dir.path(&format!("{}.quarantine", journal_file_name(design)));
    assert!(side.exists(), "torn bytes preserved for the operator");
    // The writer appends cleanly after the surviving prefix.
    writer.append(&sample_record(7)).expect("append");
    let replay = read_journal(&path).expect("recover");
    assert_eq!(replay.records.len(), 3);
    assert_same_record(&replay.records[2], &sample_record(7), "record after tear");
    assert_eq!(replay.quarantined_bytes, 0);
}

#[test]
fn a_foreign_file_under_the_journal_name_is_quarantined_wholesale() {
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    fs::write(&path, b"this was never a journal").expect("plant foreign file");
    let (mut writer, quarantined) =
        JournalWriter::open(&path, design, &netlist, 1, FaultPlan::disabled()).expect("open");
    assert_eq!(quarantined, 24, "every foreign byte is quarantined");
    assert!(dir
        .entries()
        .iter()
        .any(|name| name.ends_with(".quarantine")));
    writer.append(&sample_record(0)).expect("append");
    assert_eq!(read_journal(&path).expect("recover").records.len(), 1);
}

#[test]
fn truncate_to_valid_cuts_the_quarantined_tail_out_of_the_file() {
    let dir = TempDir::new();
    let (path, design, boundaries) = build_journal(&dir, 3);
    // Tear the last record in half on disk, as a kill mid-append would.
    let bytes = fs::read(&path).expect("read journal");
    let torn_len = (boundaries[2] + (boundaries[3] - boundaries[2]) / 2) as usize;
    fs::write(&path, &bytes[..torn_len]).expect("tear");

    let replay = read_journal(&path).expect("recover");
    assert!(replay.quarantined_bytes > 0);
    truncate_to_valid(&path, &replay).expect("truncate");
    assert_eq!(
        fs::metadata(&path).expect("metadata").len(),
        replay.valid_bytes,
        "the file shrinks to exactly the valid prefix"
    );
    let side = dir.path(&format!("{}.quarantine", journal_file_name(design)));
    assert!(side.exists(), "torn bytes preserved for the operator");
    let again = read_journal(&path).expect("recover truncated");
    assert_eq!(again.records.len(), 2);
    assert_eq!(again.quarantined_bytes, 0, "nothing left to quarantine");
}

/// Emits one record through the sink's `DurabilitySink` surface, the way the
/// service's worker threads do.
fn emit_via_sink(sink: &JournalSink, netlist: &Netlist, seq: u64) {
    let sample = sample_record(seq);
    sink.record(&DurabilityRecord {
        design: design_hash(netlist),
        netlist,
        verdict: sample.verdict.clone(),
    });
}

#[test]
fn sink_reset_refuses_when_an_append_raced_the_snapshot() {
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let path = dir.path(&journal_file_name(design));
    let sink = JournalSink::new(&dir.0, 1, FaultPlan::disabled());
    assert_eq!(sink.append_token(design), 0, "no appends yet");

    emit_via_sink(&sink, &netlist, 0);
    // Compaction captures the token, then a record lands while the snapshot
    // is being exported and written — the snapshot cannot contain it.
    let token = sink.append_token(design);
    emit_via_sink(&sink, &netlist, 1);
    assert!(
        !sink.reset(design, token),
        "a stale token must keep the journal"
    );
    assert_eq!(
        read_journal(&path).expect("recover").records.len(),
        2,
        "the raced record is still on disk"
    );

    // The retry, with nothing racing, removes the journal.
    assert!(sink.reset(design, sink.append_token(design)));
    assert!(!path.exists(), "compaction removes the journal");

    // The append sequence survives the compaction: a token captured before
    // it never matches again, so a stale compaction cannot remove the fresh
    // journal of a record appended after it.
    emit_via_sink(&sink, &netlist, 2);
    assert!(
        !sink.reset(design, token),
        "a token from before the compaction is stale"
    );
    assert_eq!(
        read_journal(&path).expect("recover").records.len(),
        1,
        "the record appended after the compaction stays"
    );
}

#[test]
fn sink_reset_with_no_writer_deletes_a_boot_leftover_journal() {
    let dir = TempDir::new();
    let (path, design, _) = build_journal(&dir, 2);
    // A sink that never appended (the journal is a boot leftover, already
    // replayed into the snapshot being compacted) deletes the file outright.
    let sink = JournalSink::new(&dir.0, 1, FaultPlan::disabled());
    assert!(sink.reset(design, sink.append_token(design)));
    assert!(!path.exists(), "the superseded journal is gone");
    // Deleting an already-absent journal is a success, not an error.
    assert!(sink.reset(design, 0));
}

#[test]
fn flush_all_syncs_each_journal_with_unsynced_records_once() {
    let dir = TempDir::new();
    let netlist = sample_netlist();
    let sink = JournalSink::new(&dir.0, 32, FaultPlan::disabled());
    assert_eq!(sink.flush_all(), 0, "no journal open yet");
    for seq in 0..3 {
        emit_via_sink(&sink, &netlist, seq);
    }
    // Three appends sit below the group-commit batch of 32: one journal
    // holds unsynced records, and once synced it holds none.
    assert_eq!(sink.flush_all(), 1);
    assert_eq!(sink.flush_all(), 0);
}

/// Satellite: a deterministic seeded fuzz sweep. Random journals are
/// truncated, bit-flipped and tail-garbled at random; recovery must never
/// panic, must never invent records, and whatever prefix it accepts must be
/// byte-for-byte the records that were appended.
#[test]
fn fuzz_recovery_always_yields_a_valid_prefix_and_never_panics() {
    let dir = TempDir::new();
    let mut rng = Rng64::seed_from_u64(0xD1CE_F00D);
    for round in 0..120 {
        let count = rng.next_range(1, 8);
        let (path, _, boundaries) = build_journal(&dir, count);
        let clean = fs::read(&path).expect("read journal");
        let header_len = boundaries[0];
        let mut bytes = clean.clone();
        // One to three random mutations per round.
        for _ in 0..rng.next_range(1, 4) {
            match rng.next_below(4) {
                // Truncate anywhere, header included.
                0 => bytes.truncate(rng.next_below(bytes.len() as u64 + 1) as usize),
                // Flip a random bit anywhere.
                1 if !bytes.is_empty() => {
                    let at = rng.next_below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.next_below(8);
                }
                // Append random garbage (a torn next append).
                2 => {
                    for _ in 0..rng.next_range(1, 40) {
                        bytes.push(rng.next_u64() as u8);
                    }
                }
                // Zero a random run (sparse-file style damage).
                _ if !bytes.is_empty() => {
                    let at = rng.next_below(bytes.len() as u64) as usize;
                    let run = (rng.next_range(1, 16) as usize).min(bytes.len() - at);
                    bytes[at..at + run].fill(0);
                }
                _ => {}
            }
        }
        let context = format!("round {round} ({} bytes)", bytes.len());
        match recover_journal(&bytes) {
            // Header damaged: allowed, as long as it is a clean error.
            Err(_) => {}
            Ok(replay) => {
                assert!(
                    replay.records.len() <= count as usize,
                    "{context}: recovered more records than were written"
                );
                assert!(
                    replay.valid_bytes >= header_len,
                    "{context}: valid prefix shorter than the header"
                );
                assert_eq!(
                    replay.valid_bytes + replay.quarantined_bytes,
                    bytes.len() as u64,
                    "{context}: prefix + quarantine must cover the file"
                );
                // Any accepted record whose frame bytes are untouched must
                // decode identically; checksum collisions under these tiny
                // mutations are out of scope, so a record that differs from
                // what was appended means recovery misaligned — check all.
                for (seq, record) in replay.records.iter().enumerate() {
                    let start = boundaries[seq] as usize;
                    let end = boundaries[seq + 1] as usize;
                    if bytes.len() >= end && bytes[start..end] == clean[start..end] {
                        assert_same_record(record, &sample_record(seq as u64), &context);
                    }
                }
            }
        }
        fs::remove_file(&path).ok();
    }
}
