//! Persistence contract tests: round-trip equality, rejection of truncated /
//! bit-flipped / foreign-design snapshots, and atomicity of the writer.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use wlac_atpg::Trace;
use wlac_baselines::{FrameClause, FrameLit};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};
use wlac_persist::{
    decode_snapshot, encode_snapshot, load_snapshot, save_snapshot, snapshot_file_name,
    PersistError, Snapshot,
};
use wlac_portfolio::{Engine, EngineHistory, Verdict};
use wlac_service::{design_hash, KnowledgeBase, PropertyHash, VerdictRecord};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "wlac-persist-test-{}-{}",
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
        fs::read_dir(&self.0)
            .expect("read temp dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// A sequential design exercising every serialized construct: named and
/// unnamed nets, constants, a DFF with an initial value, arithmetic,
/// comparators, a mux and marked outputs.
fn sample_netlist() -> Netlist {
    let mut nl = Netlist::new("snapshot_sample");
    let (q, ff) = nl.dff_deferred(8, Some(Bv::from_u64(8, 3)));
    let one = nl.constant(&Bv::from_u64(8, 1));
    let plus = nl.add(q, one);
    let cap = nl.constant(&Bv::from_u64(8, 200));
    let at_cap = nl.eq(q, cap);
    let next = nl.mux(at_cap, cap, plus);
    nl.connect_dff_data(ff, next);
    let in_a = nl.input("a", 8);
    let sum = nl.add(q, in_a);
    let ok = nl.lt(sum, cap);
    nl.mark_output("ok", ok);
    nl
}

fn sample_snapshot() -> Snapshot {
    let netlist = sample_netlist();
    let design = design_hash(&netlist);
    let mut knowledge = KnowledgeBase::new(design);
    knowledge.clauses.insert(&FrameClause {
        depth: 2,
        lits: vec![
            FrameLit {
                frame: 0,
                net: NetId::from_index(0),
                bit: 1,
                negated: false,
            },
            FrameLit {
                frame: 1,
                net: NetId::from_index(2),
                bit: 0,
                negated: true,
            },
        ],
    });
    knowledge.history = EngineHistory::from_counts([5, 2, 0], [7, 7, 6]);
    let verdicts = vec![
        VerdictRecord {
            property: PropertyHash(0xABCD),
            config: 0x1234,
            verdict: Verdict::Holds {
                proved: false,
                frames: 8,
            },
            winner: Some(Engine::Atpg),
        },
        VerdictRecord {
            property: PropertyHash(0xEF01),
            config: 0x1234,
            verdict: Verdict::Violated {
                trace: Trace {
                    initial_state: vec![(NetId::from_index(0), Bv::from_u64(8, 3))],
                    inputs: vec![
                        vec![(NetId::from_index(8), Bv::from_u64(8, 250))],
                        vec![(NetId::from_index(8), Bv::from_u64(8, 251))],
                    ],
                },
            },
            winner: Some(Engine::RandomSim),
        },
    ];
    Snapshot {
        netlist,
        knowledge,
        verdicts,
    }
}

#[test]
fn round_trip_preserves_everything() {
    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let design = snapshot.knowledge.design();
    let path = dir.path(&snapshot_file_name(design));
    save_snapshot(&path, &snapshot).expect("save");
    let restored = load_snapshot(&path).expect("load");

    // The netlist reproduces the same structural identity...
    assert_eq!(design_hash(&restored.netlist), design);
    // ...including names, which the hash ignores.
    assert_eq!(restored.netlist.name(), "snapshot_sample");
    assert_eq!(
        restored.netlist.find_net("a"),
        snapshot.netlist.find_net("a")
    );
    assert_eq!(restored.netlist.outputs(), snapshot.netlist.outputs());

    // Knowledge round-trips field by field.
    assert_eq!(restored.knowledge.design(), design);
    assert_eq!(
        restored.knowledge.clauses.to_seeds(),
        snapshot.knowledge.clauses.to_seeds()
    );
    assert_eq!(restored.knowledge.history, snapshot.knowledge.history);

    // Verdicts, winners and the embedded trace round-trip.
    assert_eq!(restored.verdicts.len(), 2);
    assert_eq!(restored.verdicts[0].property, PropertyHash(0xABCD));
    assert_eq!(restored.verdicts[0].winner, Some(Engine::Atpg));
    assert_eq!(
        restored.verdicts[0].verdict,
        Verdict::Holds {
            proved: false,
            frames: 8
        }
    );
    let Verdict::Violated { trace } = &restored.verdicts[1].verdict else {
        panic!("expected the violation verdict");
    };
    assert_eq!(trace.len(), 2);
    assert_eq!(
        trace.initial_state,
        vec![(NetId::from_index(0), Bv::from_u64(8, 3))]
    );
}

/// `sample_snapshot` as a server wrote it while knowledge bases still kept
/// ATPG conflict counts: its ESTG section holds 17 conflicts on net 4 = 1
/// and 3 on net 4 = 0.
const ESTG_ERA_SNAPSHOT: &[u8] = include_bytes!("fixtures/estg_entries.wlacsnap");

#[test]
fn a_snapshot_with_estg_entries_still_decodes() {
    let restored = decode_snapshot(ESTG_ERA_SNAPSHOT).expect("an earlier server's file decodes");
    let sample = sample_snapshot();
    assert_eq!(restored.knowledge.design(), sample.knowledge.design());
    assert_eq!(
        restored.knowledge.clauses.to_seeds(),
        sample.knowledge.clauses.to_seeds()
    );
    assert_eq!(restored.knowledge.history, sample.knowledge.history);
    assert_eq!(restored.verdicts.len(), 2);
    for (got, want) in restored.verdicts.iter().zip(&sample.verdicts) {
        assert_eq!(
            (got.property, got.config, got.winner, &got.verdict),
            (want.property, want.config, want.winner, &want.verdict)
        );
    }
    // Written again, it is today's file: the same state, an empty ESTG
    // section, and the two dropped entries' 34 bytes shorter.
    let rewritten = encode_snapshot(&restored).expect("encodes");
    assert_eq!(rewritten, encode_snapshot(&sample).expect("encodes"));
    assert_eq!(rewritten.len() + 2 * 17, ESTG_ERA_SNAPSHOT.len());
}

#[test]
fn truncated_snapshots_are_rejected_at_every_length() {
    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("full.wlacsnap");
    save_snapshot(&path, &snapshot).expect("save");
    let bytes = fs::read(&path).expect("read back");
    let stride = (bytes.len() / 97).max(1); // sample lengths, ends inclusive
    let cut_path = dir.path("cut.wlacsnap");
    for len in (0..bytes.len()).step_by(stride).chain([bytes.len() - 1]) {
        fs::write(&cut_path, &bytes[..len]).expect("write truncation");
        assert!(
            load_snapshot(&cut_path).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
}

#[test]
fn bit_flipped_snapshots_are_rejected() {
    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("full.wlacsnap");
    save_snapshot(&path, &snapshot).expect("save");
    let bytes = fs::read(&path).expect("read back");
    let flip_path = dir.path("flipped.wlacsnap");
    let stride = (bytes.len() / 131).max(1);
    for byte in (0..bytes.len()).step_by(stride) {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            fs::write(&flip_path, &corrupt).expect("write corruption");
            assert!(
                load_snapshot(&flip_path).is_err(),
                "flip of byte {byte} bit {bit} was accepted"
            );
        }
    }
}

#[test]
fn foreign_design_snapshots_are_rejected_by_the_service_import() {
    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("a.wlacsnap");
    save_snapshot(&path, &snapshot).expect("save");
    let restored = load_snapshot(&path).expect("load");

    // The snapshot is internally consistent, but it describes a different
    // design than the one the receiving service has registered — the
    // existing KnowledgeError validation is the trust boundary.
    let mut other = sample_netlist();
    let extra = other.input("extra", 4);
    other.mark_output("extra", extra);
    let service = wlac_service::VerificationService::new(wlac_service::ServiceConfig::default());
    let other_hash = service.register_design(&other);
    assert!(matches!(
        service.import_knowledge(other_hash, &restored.knowledge),
        Err(wlac_service::KnowledgeError::DesignMismatch { .. })
    ));

    // A tampered design-hash field no longer matches the netlist: rejected
    // at load time (the checksum catches casual corruption; this guards a
    // deliberately re-sealed file).
    let design = snapshot.knowledge.design();
    let foreign = Snapshot {
        netlist: other,
        knowledge: KnowledgeBase::new(design), // claims the sample's hash
        verdicts: Vec::new(),
    };
    let forged = dir.path("forged.wlacsnap");
    save_snapshot(&forged, &foreign).expect("save");
    assert!(matches!(
        load_snapshot(&forged),
        Err(PersistError::Malformed(_))
    ));
}

#[test]
fn atomic_write_leaves_no_partial_file_behind() {
    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("design.wlacsnap");

    // Success path: exactly the target file, no temporary residue.
    save_snapshot(&path, &snapshot).expect("save");
    assert_eq!(dir.entries(), vec!["design.wlacsnap".to_string()]);

    // Overwrite path: the file is replaced in place with no temp residue;
    // the previous generation is kept as the last-good backup.
    let mut updated = snapshot.clone();
    updated.verdicts.clear();
    save_snapshot(&path, &updated).expect("overwrite");
    assert_eq!(
        dir.entries(),
        vec![
            "design.wlacsnap".to_string(),
            "design.wlacsnap.bak".to_string()
        ]
    );
    assert!(load_snapshot(&path).expect("load").verdicts.is_empty());
    let backup = load_snapshot(&dir.path("design.wlacsnap.bak")).expect("backup loads");
    assert_eq!(
        backup.verdicts.len(),
        snapshot.verdicts.len(),
        "the backup is the previous generation"
    );

    // Failure path: writing into a missing directory fails without creating
    // anything anywhere (in particular no half-written target).
    let missing = dir.path("no-such-dir").join("design.wlacsnap");
    assert!(matches!(
        save_snapshot(&missing, &snapshot),
        Err(PersistError::Io(_))
    ));
    assert_eq!(
        dir.entries(),
        vec![
            "design.wlacsnap".to_string(),
            "design.wlacsnap.bak".to_string()
        ]
    );
}

#[test]
fn torn_write_leaves_the_published_snapshot_intact() {
    use wlac_faultinject::{FaultPlan, FaultSite};
    use wlac_persist::{clean_stale_temp_files, save_snapshot_faulted};

    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("design.wlacsnap");
    save_snapshot(&path, &snapshot).expect("initial save");

    // A kill mid-write (simulated): the save fails, half a frame lands in a
    // temp file, and the published snapshot is untouched.
    let faults = FaultPlan::new().fire_nth(FaultSite::SnapshotTorn, 1);
    let mut updated = snapshot.clone();
    updated.verdicts.clear();
    assert!(matches!(
        save_snapshot_faulted(&path, &updated, &faults),
        Err(PersistError::Io(_))
    ));
    let mut entries = dir.entries();
    entries.sort();
    assert!(
        entries.iter().any(|e| e.contains(".wlacsnap.tmp")),
        "torn temp file left behind: {entries:?}"
    );
    let loaded = load_snapshot(&path).expect("published snapshot still loads");
    assert_eq!(loaded.verdicts.len(), snapshot.verdicts.len());

    // Boot-time sweep removes the debris and nothing else.
    let removed = clean_stale_temp_files(&dir.0).expect("sweep");
    assert_eq!(removed, 1);
    let mut entries = dir.entries();
    entries.sort();
    assert_eq!(entries, vec!["design.wlacsnap".to_string()]);
}

#[test]
fn snapshot_write_fault_fails_without_touching_disk() {
    use wlac_faultinject::{FaultPlan, FaultSite};
    use wlac_persist::save_snapshot_faulted;

    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("design.wlacsnap");
    let faults = FaultPlan::new().fire_nth(FaultSite::SnapshotWrite, 1);
    assert!(matches!(
        save_snapshot_faulted(&path, &snapshot, &faults),
        Err(PersistError::Io(_))
    ));
    assert!(dir.entries().is_empty(), "nothing may reach the disk");
    // The next save (fault exhausted) succeeds normally.
    save_snapshot_faulted(&path, &snapshot, &faults).expect("second save");
    assert_eq!(dir.entries(), vec!["design.wlacsnap".to_string()]);
}

#[test]
fn corrupt_primary_falls_back_to_the_last_good_backup() {
    use wlac_persist::load_snapshot_with_fallback;

    let dir = TempDir::new();
    let snapshot = sample_snapshot();
    let path = dir.path("design.wlacsnap");
    save_snapshot(&path, &snapshot).expect("generation 1");
    let mut updated = snapshot.clone();
    updated.verdicts.clear();
    save_snapshot(&path, &updated).expect("generation 2 (keeps 1 as .bak)");

    // Healthy primary: no fallback.
    let (loaded, from_backup) = load_snapshot_with_fallback(&path).expect("load");
    assert!(!from_backup);
    assert!(loaded.verdicts.is_empty());

    // Corrupt the primary; the loader reports the backup generation.
    let mut bytes = fs::read(&path).expect("read frame");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&path, &bytes).expect("corrupt primary");
    let (loaded, from_backup) = load_snapshot_with_fallback(&path).expect("fallback load");
    assert!(from_backup, "must boot from the backup");
    assert_eq!(loaded.verdicts.len(), snapshot.verdicts.len());

    // Both generations gone: the primary's error surfaces.
    fs::remove_file(dir.path("design.wlacsnap.bak")).expect("drop backup");
    assert!(matches!(
        load_snapshot_with_fallback(&path),
        Err(PersistError::ChecksumMismatch)
    ));
}

#[test]
fn timeout_verdicts_are_never_persisted() {
    let dir = TempDir::new();
    let mut snapshot = sample_snapshot();
    snapshot.verdicts.push(VerdictRecord {
        property: PropertyHash(0xFEED),
        config: 1,
        verdict: Verdict::Timeout {
            budget: std::time::Duration::from_secs(1),
        },
        winner: None,
    });
    assert!(matches!(
        save_snapshot(&dir.path("design.wlacsnap"), &snapshot),
        Err(PersistError::Malformed(_))
    ));
    assert!(dir.entries().is_empty());
}
