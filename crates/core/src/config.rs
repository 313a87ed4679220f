//! Checker configuration and cooperative cancellation.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlac_faultinject::FaultPlan;
use wlac_telemetry::{ProgressHandle, RecorderHandle, SpanId, Tracer};

struct CancelInner {
    flag: AtomicBool,
    /// Hard wall-clock deadline; once passed, the token reads as cancelled
    /// forever (the flag is latched on first observation).
    deadline: Option<Instant>,
}

/// A cooperative cancellation token shared between a checker run and its
/// supervisor (e.g. the portfolio engine racing several strategies).
///
/// Cloning a token yields a handle to the **same** flag: cancelling any clone
/// cancels them all. The search loops poll [`CancelToken::is_cancelled`] and
/// abort with an `Unknown`/inconclusive outcome, so a race supervisor can
/// stop losing engines as soon as a winner produces a definitive answer.
///
/// A token may also carry a **deadline** ([`CancelToken::with_deadline`]):
/// once the wall clock passes it, every clone reads as cancelled — the
/// mechanism behind per-job time budgets, which guarantees a hung engine
/// frees its worker instead of occupying it forever.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// Creates a token that self-cancels once the wall clock passes
    /// `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Creates a token that self-cancels `budget` from now.
    pub fn deadline_in(budget: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone, or
    /// once the deadline (when one is set) has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so later polls skip the clock read.
                self.inner.flag.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// The deadline this token self-cancels at, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// `true` when this token carries a deadline that has already passed —
    /// distinguishes "ran out of budget" from "a supervisor cancelled us".
    pub fn deadline_expired(&self) -> bool {
        matches!(self.inner.deadline, Some(deadline) if Instant::now() >= deadline)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

/// Destination for structured span events emitted by a traced check.
///
/// Like [`CancelToken`], this is runtime wiring rather than configuration:
/// cloning a sink yields a handle to the **same** tracer ring, and a sink
/// with no tracer attached (the default) swallows every event. The search
/// only emits when [`CheckerOptions::trace`] is set, so the default path
/// pays nothing.
#[derive(Clone, Default)]
pub struct TraceSink {
    tracer: Option<Arc<Tracer>>,
}

impl TraceSink {
    /// A sink that discards every event (the default).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A sink recording into `tracer`.
    pub fn to(tracer: Arc<Tracer>) -> Self {
        TraceSink {
            tracer: Some(tracer),
        }
    }

    /// `true` when a tracer is attached.
    pub fn is_active(&self) -> bool {
        self.tracer.is_some()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Opens a span (no-op returning [`SpanId::ROOT`] when inactive).
    pub fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        match &self.tracer {
            Some(t) => t.span_start(name, parent),
            None => SpanId::ROOT,
        }
    }

    /// Closes a span (no-op when inactive).
    pub fn span_end(&self, span: SpanId, name: &'static str) {
        if let Some(t) = &self.tracer {
            t.span_end(span, name);
        }
    }

    /// Records an instantaneous event (no-op when inactive).
    pub fn event(&self, name: &'static str, parent: SpanId, value: u64) {
        if let Some(t) = &self.tracer {
            t.event(name, parent, value);
        }
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("active", &self.is_active())
            .finish()
    }
}

/// Options controlling the word-level ATPG search and the arithmetic solver.
///
/// The defaults reproduce the configuration used for the paper's experiments:
/// bias-ordered decisions, the extended-state-transition-graph heuristic for
/// decision ordering, the modular arithmetic solver enabled, and induction
/// attempted before bounded search.
#[derive(Debug, Clone)]
pub struct CheckerOptions {
    /// Maximum number of time-frames explored for bounded checks.
    pub max_frames: usize,
    /// Maximum number of backtracks one search (one bound, or the induction
    /// step) may take before it gives up; each search counts from its own
    /// start.
    pub backtrack_limit: usize,
    /// Maximum number of decisions one search may take before it gives up;
    /// each search counts from its own start.
    pub decision_limit: usize,
    /// Wall-clock limit for a single property check.
    pub time_limit: Duration,
    /// Attempt a 1-step induction proof before the bounded search
    /// (an extension beyond the paper, disabled to mimic it exactly).
    pub use_induction: bool,
    /// Order decisions by the legal-assignment bias (Definition 2);
    /// when disabled decisions are taken in structural order.
    pub use_bias_ordering: bool,
    /// Record conflicting abstract state transitions in the extended state
    /// transition graph and use them to order decisions.
    pub use_estg: bool,
    /// Use the modular arithmetic constraint solver for residual datapath
    /// constraints; when disabled the leaf only samples completions. A leaf
    /// that is neither solved nor refuted is split on a datapath bit.
    pub use_arithmetic_solver: bool,
    /// Reuse cached island topology and pre-reduced solver templates across
    /// the decision search. When disabled every datapath resolution rebuilds
    /// its state from scratch — slower, but byte-for-byte the same
    /// transcription and solving code, which makes this the differential
    /// oracle for the incremental path.
    pub incremental_datapath: bool,
    /// Cooperative cancellation token polled by the search loop. Runtime
    /// wiring, like the five fields after it: none of them can change what a
    /// definitive answer says.
    pub cancel: CancelToken,
    /// Record phase-attributed wall-clock time ([`crate::PhaseNanos`]) and
    /// emit per-decision span events into [`CheckerOptions::trace_sink`].
    /// Pure observability: verdicts and decision sequences are byte-identical
    /// with tracing on or off (enforced by a differential test).
    pub trace: bool,
    /// Span-event destination used when [`CheckerOptions::trace`] is set.
    pub trace_sink: TraceSink,
    /// Deterministic fault-injection plan crossed by the search loop (the
    /// `engine_hang` site). Disabled by default; a plan can only make an
    /// engine *fail to answer*, never change what a definitive answer says.
    pub faults: FaultPlan,
    /// Always-on flight-recorder handle: the search emits coarse lifecycle
    /// events (search entry/exit, frame-bound advances) into it, stamped
    /// with the job id the handle carries. Unlike [`CheckerOptions::trace`]
    /// there is no opt-in flag — the disabled default costs one branch per
    /// emission site, and the sites are per-frame, not per-decision, so the
    /// hot path stays untouched.
    pub recorder: RecorderHandle,
    /// Live-progress handle: the search periodically publishes its effort
    /// counters (bound, decisions, conflicts, backtracks, restarts,
    /// implications, phase nanos) into the attached [`ProgressCell`] so
    /// observers can watch a long check in flight. Publication is lock-free
    /// and alloc-free (a seqlock of pre-allocated atomics), the disabled
    /// default costs one branch per throttled publication site, and a
    /// differential test proves probed and unprobed runs are byte-identical
    /// in verdicts and every counter.
    pub progress: ProgressHandle,
}

impl CheckerOptions {
    /// Creates the default configuration.
    pub fn new() -> Self {
        CheckerOptions {
            max_frames: 12,
            backtrack_limit: 200_000,
            decision_limit: 1_000_000,
            time_limit: Duration::from_secs(120),
            use_induction: true,
            use_bias_ordering: true,
            use_estg: true,
            use_arithmetic_solver: true,
            incremental_datapath: true,
            cancel: CancelToken::new(),
            trace: false,
            trace_sink: TraceSink::disabled(),
            faults: FaultPlan::disabled(),
            recorder: RecorderHandle::disabled(),
            progress: ProgressHandle::disabled(),
        }
    }

    /// Replaces the cancellation token, wiring this configuration into an
    /// externally controlled race or batch run.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enables phase-attributed timing and routes span events to `sink`.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = true;
        self.trace_sink = sink;
        self
    }

    /// Arms a fault-injection plan (chaos testing; the default plan is
    /// disabled and free).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Routes always-on flight-recorder events (search entry/exit, bound
    /// advances) into `recorder`; the handle's job id stamps every event.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Routes live-progress probes (throttled effort-counter publications
    /// and bound advances) into `progress`.
    pub fn with_progress(mut self, progress: ProgressHandle) -> Self {
        self.progress = progress;
        self
    }
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_paper_heuristics() {
        let opts = CheckerOptions::default();
        assert!(opts.use_bias_ordering);
        assert!(opts.use_arithmetic_solver);
        assert!(opts.use_estg);
        assert!(opts.incremental_datapath);
        assert!(opts.max_frames >= 8);
    }

    #[test]
    fn cancel_tokens_are_shared_between_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(format!("{token:?}").contains("true"));
    }

    #[test]
    fn trace_wiring_does_not_affect_option_equality() {
        use std::sync::Arc;
        let traced = CheckerOptions::new().with_trace(TraceSink::to(Arc::new(Tracer::new(16))));
        assert!(traced.trace);
        assert!(traced.trace_sink.is_active());
        assert!(!TraceSink::disabled().is_active());
        assert!(format!("{:?}", traced.trace_sink).contains("true"));
    }

    #[test]
    fn inactive_sink_swallows_events() {
        let sink = TraceSink::disabled();
        let span = sink.span_start("search", SpanId::ROOT);
        assert_eq!(span, SpanId::ROOT);
        sink.event("decision", span, 1);
        sink.span_end(span, "search");
        let tracer = Arc::new(Tracer::new(8));
        let sink = TraceSink::to(tracer.clone());
        let span = sink.span_start("search", SpanId::ROOT);
        sink.event("decision", span, 1);
        sink.span_end(span, "search");
        assert_eq!(tracer.events().len(), 3);
    }

    #[test]
    fn deadline_tokens_self_cancel() {
        let token = CancelToken::deadline_in(Duration::from_millis(10));
        assert!(!token.is_cancelled());
        assert!(!token.deadline_expired());
        assert!(token.deadline().is_some());
        std::thread::sleep(Duration::from_millis(20));
        let clone = token.clone();
        assert!(clone.is_cancelled(), "deadline passed on every clone");
        assert!(token.deadline_expired());
        // An explicit cancel is not a deadline expiry.
        let manual = CancelToken::new();
        manual.cancel();
        assert!(manual.is_cancelled());
        assert!(!manual.deadline_expired());
        assert!(manual.deadline().is_none());
    }

    #[test]
    fn fault_plan_does_not_affect_option_equality() {
        use wlac_faultinject::FaultSite;
        let faulted =
            CheckerOptions::new().with_faults(FaultPlan::new().fire_nth(FaultSite::EngineHang, 1));
        assert!(faulted.faults.is_armed());
        assert!(!CheckerOptions::new().faults.is_armed());
    }

    #[test]
    fn progress_handle_does_not_affect_option_equality() {
        use std::sync::Arc;
        use wlac_telemetry::ProgressCell;
        let cell = Arc::new(ProgressCell::new());
        let probed = CheckerOptions::new().with_progress(ProgressHandle::to(cell));
        assert!(probed.progress.is_enabled());
        assert!(!CheckerOptions::new().progress.is_enabled());
    }

    #[test]
    fn cancel_token_does_not_affect_option_equality() {
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let a = CheckerOptions::new().with_cancel(cancelled);
        assert!(a.cancel.is_cancelled());
        assert!(!CheckerOptions::new().cancel.is_cancelled());
    }
}
