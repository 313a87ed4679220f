//! # wlac-telemetry — the observability core of the workspace
//!
//! Every layer of the checker — the word-level ATPG decision loop, the
//! engine portfolio, the verification service and the network server —
//! reports into the two primitives defined here:
//!
//! * [`MetricsRegistry`] — a name-keyed registry of atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed latency [`Histogram`]s. Handles are
//!   registered once (allocating); recording through a held handle is a
//!   plain relaxed atomic that takes no lock and performs no heap
//!   allocation, so the zero-alloc steady-state guarantee of the core
//!   search (`crates/core/tests/alloc_free.rs`) survives instrumentation.
//!   Looking a metric up by name is not free: it takes the registry mutex
//!   and scans the registered names, and the service, portfolio, journal
//!   sink and server still do that at every per-job site. The
//!   registry renders itself as Prometheus-style text and as a flat JSON
//!   object; `perf_json` and the server's `metrics` op share that code, so
//!   BENCH numbers and live telemetry cannot diverge in format.
//! * [`Tracer`] — a hierarchical span/event recorder backed by a bounded
//!   pre-allocated ring buffer. Names are `&'static str` and payloads are
//!   plain integers, so emitting an event never allocates; when the ring
//!   wraps, the oldest events are dropped and counted. Snapshots export as
//!   JSONL, one event per line.
//! * [`FlightRecorder`] — the always-on black box: a lock-free, alloc-free
//!   ring of compact structured events (layer, kind, job id, monotonic
//!   nanos, two payload words) every layer emits into via a shared
//!   [`RecorderHandle`], so the last N events of system behavior are always
//!   reconstructable for a post-mortem dump or a remote `events` tail.
//! * [`ProgressCell`] — a per-engine seqlock cell the core search publishes
//!   live effort counters into through a [`ProgressHandle`]; observers
//!   snapshot it at any moment (the `progress`/`subscribe` ops) without
//!   locks, allocations or any effect on the search.
//!
//! The crate is std-only and dependency-free by design: it sits below every
//! other crate in the workspace and must never pull the build online.
//!
//! # Examples
//!
//! ```
//! use wlac_telemetry::{MetricsRegistry, Tracer, SpanId};
//!
//! let registry = MetricsRegistry::new();
//! let decisions = registry.counter("core_decisions_total");
//! let latency = registry.histogram("request_wall_ns");
//! decisions.inc();
//! latency.record(1_500);
//! assert!(registry.render_prometheus().contains("core_decisions_total 1"));
//!
//! let tracer = Tracer::new(64);
//! let span = tracer.span_start("search", SpanId::ROOT);
//! tracer.event("decision", span, 7);
//! tracer.span_end(span, "search");
//! assert_eq!(tracer.events().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod progress;
mod recorder;
mod tracer;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry};
pub use progress::{ProgressCell, ProgressHandle, ProgressProbe};
pub use recorder::{FlightEvent, FlightRecorder, RecorderHandle, RecorderKind, RecorderLayer};
pub use tracer::{SpanId, TraceEvent, TraceEventKind, Tracer};
