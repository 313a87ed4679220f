//! The always-on flight recorder: a fixed-capacity, lock-free, alloc-free
//! ring of compact structured events.
//!
//! The [`Tracer`](crate::Tracer) is opt-in and allocation-backed — right for
//! a `trace_check` deep-dive, wrong for "what was the system doing when the
//! worker died". The [`FlightRecorder`] fills that gap: every layer of the
//! stack (core search, portfolio races, service workers, persist/journal,
//! server request loop) emits fixed-size events into one shared ring at all
//! times, so the last N events are always available for a post-mortem dump
//! or a remote `events` tail.
//!
//! Design constraints, in order:
//!
//! * **Never allocates, never takes a mutex.** [`FlightRecorder::record`]
//!   is a ticket claim (`fetch_add`), a slot claim (`compare_exchange`) and
//!   six stores, so it is safe to call from a panicking worker, inside the
//!   search inner loop, or on the journal fsync path. A writer only ever
//!   waits when the ring lapped it: another writer holds the same slot, and
//!   the wait lasts that writer's five field stores.
//! * **Overwrite-oldest.** The ring never refuses an event; the write cursor
//!   wraps and [`FlightRecorder::overwrites`] counts what was lost. When two
//!   writers race for one slot, the newer ticket wins it, whichever order
//!   they arrive in.
//! * **Torn reads are detected, not prevented.** Each slot carries a
//!   sequence word in seqlock fashion: 0 when empty, [`BUSY`] while its one
//!   writer is mid-write, the unique ticket + 1 when complete. Writers
//!   exclude each other through that word, so a published slot's fields are
//!   never mixed from two writers; [`FlightRecorder::snapshot`] re-reads the
//!   stamp after decoding and drops any slot that changed under it. Under
//!   `#![forbid(unsafe_code)]` this is the whole concurrency story: no
//!   `UnsafeCell`, just atomics and a validation pass.
//!
//! Call sites hold a [`RecorderHandle`] — the same shape as `TraceSink` and
//! `DurabilityHook`: an `Option<Arc<FlightRecorder>>` that is inert and
//! nearly free when disabled (one branch per call), plus a job id the owner
//! stamps once so every event a worker emits on behalf of a job carries it.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum RecorderLayer {
    /// The word-level search core (frame bounds, search entry/exit).
    Core = 0,
    /// The engine portfolio (race lifecycle, spawns, answers, cancels).
    Portfolio = 1,
    /// The verification service (job lifecycle, quarantines, respawns).
    Service = 2,
    /// The durability layer (journal appends, quarantines, compactions).
    Persist = 3,
    /// The network front end (request lifecycle, faults, dumps).
    Server = 4,
}

impl RecorderLayer {
    /// All layers, for enumeration and wire filtering.
    pub const ALL: [RecorderLayer; 5] = [
        RecorderLayer::Core,
        RecorderLayer::Portfolio,
        RecorderLayer::Service,
        RecorderLayer::Persist,
        RecorderLayer::Server,
    ];

    /// Stable lower-case name (wire format and dump format).
    pub fn as_str(self) -> &'static str {
        match self {
            RecorderLayer::Core => "core",
            RecorderLayer::Portfolio => "portfolio",
            RecorderLayer::Service => "service",
            RecorderLayer::Persist => "persist",
            RecorderLayer::Server => "server",
        }
    }

    /// Parses a wire-format layer name.
    pub fn parse(s: &str) -> Option<RecorderLayer> {
        RecorderLayer::ALL.into_iter().find(|l| l.as_str() == s)
    }

    fn from_u8(v: u8) -> Option<RecorderLayer> {
        RecorderLayer::ALL.get(v as usize).copied()
    }
}

/// What happened. One flat vocabulary across layers keeps the slot encoding
/// to a single byte; the layer disambiguates (e.g. [`RecorderKind::Fault`]
/// from the service is a quarantine, from persist a torn tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RecorderKind {
    /// A unit of work began (search, race, request…). Payload is
    /// site-specific.
    Start = 0,
    /// The matching unit of work finished. Payload is site-specific
    /// (typically an outcome code and a duration).
    End = 1,
    /// The search advanced its unrolling bound. Payload 0 is the new bound.
    Bound = 2,
    /// An engine was spawned into a race. Payload 0 is the engine index.
    Spawn = 3,
    /// An engine answered. Payload 0 is the engine index, payload 1 is 1 for
    /// a definitive verdict.
    Answer = 4,
    /// The race cancelled its losers.
    Cancel = 5,
    /// A job was dequeued by a worker. Payload 0 is the queue depth left.
    Dequeue = 6,
    /// A job was answered straight from the verdict cache.
    CacheHit = 7,
    /// Something failed and was contained: quarantine, timeout, torn tail,
    /// rejected snapshot, failed autosave. Payload words are site-specific
    /// (e.g. quarantined byte counts).
    Fault = 8,
    /// A lost worker was replaced. Payload 0 is the replacement count.
    Respawn = 9,
    /// A journal record was appended. Payload 0 is the journal length in
    /// bytes after the append.
    Append = 10,
    /// A journal was compacted into a snapshot (reset). Payload 0 is the
    /// bytes discarded.
    Compact = 11,
    /// A durable artifact was written (snapshot, post-mortem dump). Payload
    /// 0 is the byte size.
    Persisted = 12,
}

impl RecorderKind {
    /// All kinds, for enumeration.
    pub const ALL: [RecorderKind; 13] = [
        RecorderKind::Start,
        RecorderKind::End,
        RecorderKind::Bound,
        RecorderKind::Spawn,
        RecorderKind::Answer,
        RecorderKind::Cancel,
        RecorderKind::Dequeue,
        RecorderKind::CacheHit,
        RecorderKind::Fault,
        RecorderKind::Respawn,
        RecorderKind::Append,
        RecorderKind::Compact,
        RecorderKind::Persisted,
    ];

    /// Stable lower-case name (wire format and dump format).
    pub fn as_str(self) -> &'static str {
        match self {
            RecorderKind::Start => "start",
            RecorderKind::End => "end",
            RecorderKind::Bound => "bound",
            RecorderKind::Spawn => "spawn",
            RecorderKind::Answer => "answer",
            RecorderKind::Cancel => "cancel",
            RecorderKind::Dequeue => "dequeue",
            RecorderKind::CacheHit => "cache_hit",
            RecorderKind::Fault => "fault",
            RecorderKind::Respawn => "respawn",
            RecorderKind::Append => "append",
            RecorderKind::Compact => "compact",
            RecorderKind::Persisted => "persisted",
        }
    }

    fn from_u8(v: u8) -> Option<RecorderKind> {
        RecorderKind::ALL.get(v as usize).copied()
    }
}

/// One decoded flight-recorder event, as returned by
/// [`FlightRecorder::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (0-based claim ticket): total order across all
    /// writers, with gaps exactly where a snapshot caught a slot mid-write.
    pub seq: u64,
    /// Emitting layer.
    pub layer: RecorderLayer,
    /// Event kind.
    pub kind: RecorderKind,
    /// The job (or connection) this event belongs to; 0 when unattributed.
    pub job: u64,
    /// Nanoseconds since the recorder was created (monotonic).
    pub at_nanos: u64,
    /// Two site-specific payload words.
    pub payload: [u64; 2],
}

/// The stamp of a slot whose writer is mid-write.
const BUSY: u64 = u64::MAX;

/// One ring slot: a per-slot seqlock. `stamp` is 0 while empty, [`BUSY`]
/// while a writer holds it and `ticket + 1` once the slot is complete;
/// readers re-check it after decoding and discard the slot on any change.
struct Slot {
    stamp: AtomicU64,
    meta: AtomicU64,
    job: AtomicU64,
    at_nanos: AtomicU64,
    payload0: AtomicU64,
    payload1: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            job: AtomicU64::new(0),
            at_nanos: AtomicU64::new(0),
            payload0: AtomicU64::new(0),
            payload1: AtomicU64::new(0),
        }
    }
}

/// The always-on event ring. See the module docs for the design; see
/// [`RecorderHandle`] for how call sites hold one.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` events (clamped to at
    /// least 1). Memory: 48 bytes per slot, allocated once, never resized.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            cursor: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the recorder was created; saturates at `u64::MAX`.
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event. Alloc-free and mutex-free: a ticket claim, a slot
    /// claim and six atomic stores. Safe from any thread, including one that
    /// is panicking.
    pub fn record(&self, layer: RecorderLayer, kind: RecorderKind, job: u64, p0: u64, p1: u64) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Claim the slot. A writer the ring lapped still holds it only for
        // its remaining field stores, so wait those out; a newer ticket that
        // already published here has overwritten this event.
        let mut spins = 0u32;
        loop {
            let stamp = slot.stamp.load(Ordering::Relaxed);
            if stamp == BUSY {
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            if stamp > ticket {
                return;
            }
            // Acquire pairs with the previous occupant's publishing store:
            // its field stores happen before this writer's.
            if slot
                .stamp
                .compare_exchange_weak(stamp, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        // Readers skip a BUSY slot. This fence pairs with the reader's
        // acquire fence: a reader that sees any field store below also sees
        // BUSY (or a later stamp) on its re-check.
        fence(Ordering::Release);
        slot.meta
            .store((layer as u64) | ((kind as u64) << 8), Ordering::Relaxed);
        slot.job.store(job, Ordering::Relaxed);
        slot.at_nanos.store(self.now_nanos(), Ordering::Relaxed);
        slot.payload0.store(p0, Ordering::Relaxed);
        slot.payload1.store(p1, Ordering::Relaxed);
        // Publish: the unique ticket (+1, so 0 stays "torn/empty") is the
        // generation a reader validates against.
        slot.stamp.store(ticket + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events lost to the overwrite-oldest policy.
    pub fn overwrites(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Decodes the ring into chronological order (by claim ticket). Slots a
    /// concurrent writer had mid-flight — or tore while this snapshot was
    /// decoding them — are dropped, so the result can be shorter than
    /// [`FlightRecorder::capacity`] even on a full ring. Allocates; the
    /// write path never calls this.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let before = slot.stamp.load(Ordering::Acquire);
            if before == 0 || before == BUSY {
                continue; // never written, or a writer is mid-flight
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let job = slot.job.load(Ordering::Relaxed);
            let at_nanos = slot.at_nanos.load(Ordering::Relaxed);
            let payload = [
                slot.payload0.load(Ordering::Relaxed),
                slot.payload1.load(Ordering::Relaxed),
            ];
            // Orders the field loads before the re-check.
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != before {
                continue; // torn under us; the writer's version wins
            }
            let (Some(layer), Some(kind)) = (
                RecorderLayer::from_u8((meta & 0xff) as u8),
                RecorderKind::from_u8(((meta >> 8) & 0xff) as u8),
            ) else {
                continue; // unreadable meta from a racing generation
            };
            events.push(FlightEvent {
                seq: before - 1,
                layer,
                kind,
                job,
                at_nanos,
                payload,
            });
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

/// A cloneable, optionally-disabled reference to a [`FlightRecorder`], plus
/// the job id the owner stamps on every event it emits.
///
/// The same pattern as `TraceSink` and `DurabilityHook`: configuration
/// structs hold one, it defaults to disabled, and a disabled handle costs a
/// single branch per call. [`RecorderHandle::with_job`] derives a handle
/// bound to a specific job so deep layers (the search core, the race) emit
/// correlated events without knowing where the id came from.
#[derive(Clone, Default)]
pub struct RecorderHandle {
    recorder: Option<Arc<FlightRecorder>>,
    job: u64,
}

impl RecorderHandle {
    /// A handle that records nothing (the default).
    pub fn disabled() -> RecorderHandle {
        RecorderHandle::default()
    }

    /// A handle that records into `recorder`, with job id 0.
    pub fn to(recorder: Arc<FlightRecorder>) -> RecorderHandle {
        RecorderHandle {
            recorder: Some(recorder),
            job: 0,
        }
    }

    /// `true` when events will actually be recorded.
    pub fn is_active(&self) -> bool {
        self.recorder.is_some()
    }

    /// This handle's job id (0 when unattributed).
    pub fn job(&self) -> u64 {
        self.job
    }

    /// A copy of this handle that stamps `job` on every event.
    pub fn with_job(&self, job: u64) -> RecorderHandle {
        RecorderHandle {
            recorder: self.recorder.clone(),
            job,
        }
    }

    /// The underlying recorder, when active (for snapshots and counters).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Records one event stamped with this handle's job id. No-op (one
    /// branch) when disabled.
    #[inline]
    pub fn record(&self, layer: RecorderLayer, kind: RecorderKind, p0: u64, p1: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.record(layer, kind, self.job, p0, p1);
        }
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("active", &self.recorder.is_some())
            .field("job", &self.job)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let rec = FlightRecorder::new(8);
        rec.record(RecorderLayer::Service, RecorderKind::Start, 7, 1, 2);
        rec.record(RecorderLayer::Core, RecorderKind::Bound, 7, 3, 0);
        rec.record(RecorderLayer::Service, RecorderKind::End, 7, 0, 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, RecorderKind::Start);
        assert_eq!(events[1].layer, RecorderLayer::Core);
        assert_eq!(events[1].payload, [3, 0]);
        assert_eq!(events[2].seq, 2);
        assert!(events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.overwrites(), 0);
    }

    #[test]
    fn overwrites_oldest_and_counts_losses() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.record(RecorderLayer::Server, RecorderKind::Start, i, i, 0);
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.overwrites(), 6);
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        // Only the newest four survive, still in order.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = RecorderHandle::disabled();
        assert!(!handle.is_active());
        handle.record(RecorderLayer::Core, RecorderKind::Bound, 1, 2);
        assert!(handle.recorder().is_none());
    }

    #[test]
    fn with_job_stamps_events() {
        let rec = Arc::new(FlightRecorder::new(8));
        let handle = RecorderHandle::to(rec.clone()).with_job(42);
        assert_eq!(handle.job(), 42);
        handle.record(RecorderLayer::Portfolio, RecorderKind::Spawn, 0, 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].job, 42);
    }

    #[test]
    fn layer_and_kind_names_round_trip() {
        for layer in RecorderLayer::ALL {
            assert_eq!(RecorderLayer::parse(layer.as_str()), Some(layer));
        }
        let mut names: Vec<&str> = RecorderKind::ALL.iter().map(|k| k.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), RecorderKind::ALL.len());
    }
}
