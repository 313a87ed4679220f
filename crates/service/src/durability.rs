//! The durability hook: how completed work leaves the service for disk.
//!
//! The service itself knows nothing about files or formats. When a raced job
//! finishes, it offers what the race produced that outlives it — the
//! definitive verdict, if any — to an optional [`DurabilitySink`] *before*
//! the result is published to waiters. A write-ahead journal (see
//! `wlac-persist`) implements the sink; the disabled default costs one
//! `Option` check per job.
//!
//! A boot-time replay inserts each record's verdict into the verdict cache
//! on top of whatever a newer snapshot restored, so the cache a restart
//! rebuilds equals the live one. Replay is idempotent: the cache is keyed
//! by query, so a verdict replayed twice is one entry.

use crate::hash::DesignHash;
use crate::session::VerdictRecord;
use std::fmt;
use std::sync::Arc;
use wlac_netlist::Netlist;

/// Everything one completed raced job contributes to durable state.
///
/// Borrowed from the worker's stack at emission time; a sink that needs the
/// data beyond the call must serialize or clone it.
#[derive(Debug)]
pub struct DurabilityRecord<'a> {
    /// The design the job ran against.
    pub design: DesignHash,
    /// The design's canonical netlist — a sink opening a fresh journal
    /// embeds it so recovery is self-contained even before any snapshot
    /// exists.
    pub netlist: &'a Netlist,
    /// The cache entry this job created: present exactly when the verdict
    /// was definitive (and therefore cached and acknowledgeable as
    /// replayable).
    pub verdict: Option<VerdictRecord>,
}

/// A destination for [`DurabilityRecord`]s — implemented by the write-ahead
/// journal in `wlac-persist`.
///
/// Called on the worker thread after the race, *before* the result is
/// published anywhere — the verdict cache included, since a concurrent
/// identical query can be acknowledged from the cache the moment an insert
/// lands: a sink that writes ahead guarantees every acknowledged result is
/// on disk. Sinks must never panic for I/O reasons —
/// durability degrades, serving continues — and should do their own error
/// accounting.
pub trait DurabilitySink: Send + Sync {
    /// Records one completed job. Failures are the sink's to count and
    /// swallow.
    fn record(&self, record: &DurabilityRecord<'_>);
}

/// The optional sink as configuration: `Clone` + `Debug` so
/// [`ServiceConfig`](crate::ServiceConfig) keeps deriving both, inert and
/// free by default — the [`FaultPlan`](wlac_faultinject::FaultPlan) pattern.
#[derive(Clone, Default)]
pub struct DurabilityHook {
    sink: Option<Arc<dyn DurabilitySink>>,
}

impl DurabilityHook {
    /// No sink: jobs complete without any durability work (the default).
    pub fn disabled() -> Self {
        DurabilityHook::default()
    }

    /// Routes every completed raced job through `sink`.
    pub fn new(sink: Arc<dyn DurabilitySink>) -> Self {
        DurabilityHook { sink: Some(sink) }
    }

    /// `true` when a sink is attached.
    pub fn is_armed(&self) -> bool {
        self.sink.is_some()
    }

    pub(crate) fn emit(&self, record: &DurabilityRecord<'_>) {
        if let Some(sink) = &self.sink {
            sink.record(record);
        }
    }
}

impl fmt::Debug for DurabilityHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityHook")
            .field("armed", &self.sink.is_some())
            .finish()
    }
}
