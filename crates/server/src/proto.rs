//! Wire-protocol vocabulary: request decoding helpers, response encoding,
//! and the hex transport for binary snapshots.
//!
//! Every frame is one line of JSON. Requests carry an `"op"` member naming
//! the operation; responses always carry `"ok"` — `true` with the payload
//! inline, or `false` with an `"error": {"code", "message"}` object. A
//! malformed frame is answered with a structured error on the same
//! connection, never a dropped socket: batch tooling on the other end wants
//! a diagnosis, not a reconnect loop.

use crate::json::Json;
use std::time::Duration;
use wlac_atpg::Verdict;
use wlac_service::{DesignHash, JobProgress, JobResult, ServiceStats};
use wlac_telemetry::{MetricsRegistry, ProgressProbe};

/// Machine-readable error codes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The frame was valid JSON but not a valid request.
    BadRequest,
    /// The `op` is not one the server knows.
    UnknownOp,
    /// A named design is not registered.
    UnknownDesign,
    /// A named batch handle does not exist.
    UnknownBatch,
    /// The design source failed to compile.
    CompileError,
    /// A property references something the design does not have.
    BadProperty,
    /// A knowledge snapshot failed validation.
    BadSnapshot,
    /// The batch is still running (for `results`).
    NotDone,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The server is at its connection cap; the reply carries a
    /// `retry_after_ms` hint. Back off and reconnect.
    Overloaded,
    /// A bounded wait (or a job budget) expired before the batch finished;
    /// the work is still running — wait again.
    Timeout,
    /// An internal failure (e.g. persistence i/o).
    Internal,
}

impl ErrorCode {
    /// Every code, in wire order — the enumeration behind the per-code error
    /// counters of the `stats` and `metrics` replies.
    pub const ALL: [ErrorCode; 13] = [
        ErrorCode::BadJson,
        ErrorCode::BadRequest,
        ErrorCode::UnknownOp,
        ErrorCode::UnknownDesign,
        ErrorCode::UnknownBatch,
        ErrorCode::CompileError,
        ErrorCode::BadProperty,
        ErrorCode::BadSnapshot,
        ErrorCode::NotDone,
        ErrorCode::ShuttingDown,
        ErrorCode::Overloaded,
        ErrorCode::Timeout,
        ErrorCode::Internal,
    ];

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownDesign => "unknown_design",
            ErrorCode::UnknownBatch => "unknown_batch",
            ErrorCode::CompileError => "compile_error",
            ErrorCode::BadProperty => "bad_property",
            ErrorCode::BadSnapshot => "bad_snapshot",
            ErrorCode::NotDone => "not_done",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured failure reply.
pub fn error_reply(code: ErrorCode, message: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str(code.as_str())),
                ("message", Json::Str(message.into())),
            ]),
        ),
    ])
}

/// A structured failure reply carrying a back-off hint: the client should
/// wait `retry_after` and try again (used by the connection-cap shed path).
pub fn error_reply_with_retry(
    code: ErrorCode,
    message: impl Into<String>,
    retry_after: Duration,
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str(code.as_str())),
                ("message", Json::Str(message.into())),
                ("retry_after_ms", Json::num(retry_after.as_millis() as u64)),
            ]),
        ),
    ])
}

/// A success reply with the given payload members.
pub fn ok_reply(mut payload: Vec<(&str, Json)>) -> Json {
    let mut members = vec![("ok", Json::Bool(true))];
    members.append(&mut payload);
    Json::obj(members)
}

/// Formats a design hash for the wire (`d` + 16 hex digits — the same
/// spelling `DesignHash` displays as).
pub fn design_to_wire(design: DesignHash) -> String {
    design.to_string()
}

/// Parses the wire spelling of a design hash.
pub fn design_from_wire(text: &str) -> Option<DesignHash> {
    let digits = text.strip_prefix('d')?;
    if digits.len() != 16 {
        return None;
    }
    u64::from_str_radix(digits, 16).ok().map(DesignHash)
}

/// Lower-case hex of a binary blob (snapshot transport).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`].
pub fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(text.get(i..i + 2)?, 16).ok())
        .collect()
}

fn duration_ms(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3)
}

/// Encodes a verdict for the wire: its label plus the fields of its variant
/// (`proved` and `frames` of a hold, `frames` of an absent witness,
/// `trace_cycles` of a trace, `reason` of an unknown, `budget_ms` of a
/// timeout).
pub fn verdict_to_wire(verdict: &Verdict) -> Json {
    let mut v = vec![("label", Json::str(verdict.label()))];
    match verdict {
        Verdict::Holds { proved, frames } => {
            v.push(("proved", Json::Bool(*proved)));
            v.push(("frames", Json::num(*frames as u64)));
        }
        Verdict::WitnessAbsent { frames } => {
            v.push(("frames", Json::num(*frames as u64)));
        }
        Verdict::Violated { trace } | Verdict::WitnessFound { trace } => {
            v.push(("trace_cycles", Json::num(trace.len() as u64)));
        }
        Verdict::Unknown { reason } => {
            v.push(("reason", Json::str(reason.clone())));
        }
        Verdict::Timeout { budget } => {
            v.push(("budget_ms", Json::num(budget.as_millis() as u64)));
        }
    }
    Json::obj(v)
}

/// Encodes one job result for the wire.
pub fn job_result_to_wire(result: &JobResult) -> Json {
    Json::obj(vec![
        ("property", Json::str(result.property.clone())),
        ("design", Json::str(design_to_wire(result.design))),
        ("verdict", verdict_to_wire(&result.verdict)),
        (
            "winner",
            result
                .winner
                .map(|w| Json::str(w.to_string()))
                .unwrap_or(Json::Null),
        ),
        ("from_cache", Json::Bool(result.from_cache)),
        ("engines_spawned", Json::num(result.engines_spawned as u64)),
        ("wall_ms", duration_ms(result.wall)),
    ])
}

/// Encodes one progress probe for the wire (the effort counters of the
/// `progress` op's rows and the `subscribe` stream's `progress` events).
pub fn probe_to_wire(probe: &ProgressProbe) -> Json {
    Json::obj(vec![
        ("bound", Json::num(probe.bound)),
        ("decisions", Json::num(probe.decisions)),
        ("conflicts", Json::num(probe.conflicts)),
        ("backtracks", Json::num(probe.backtracks)),
        ("restarts", Json::num(probe.restarts)),
        ("implications", Json::num(probe.implications)),
        ("phase_ms", Json::Num(probe.phase_nanos as f64 / 1e6)),
        ("probes", Json::num(probe.probes)),
    ])
}

/// Encodes one in-flight job's live progress for the wire.
pub fn job_progress_to_wire(progress: &JobProgress) -> Json {
    Json::obj(vec![
        ("job", Json::num(progress.job)),
        ("batch", Json::num(progress.batch.raw())),
        ("index", Json::num(progress.index as u64)),
        ("property", Json::str(progress.property.clone())),
        ("design", Json::str(design_to_wire(progress.design))),
        ("elapsed_ms", duration_ms(progress.elapsed)),
        (
            "leading",
            progress
                .leading
                .map(|e| Json::str(e.to_string()))
                .unwrap_or(Json::Null),
        ),
        ("probe", probe_to_wire(&progress.probe)),
    ])
}

/// Encodes the `stats` reply: the service counters, the durability mode
/// (`journal` with a data directory, `none` without one) and the server's
/// boot counters, read from the same registry the `metrics` op renders.
pub fn stats_to_wire(stats: &ServiceStats, durability: &str, metrics: &MetricsRegistry) -> Json {
    let count = |name: &str| Json::num(metrics.counter(name).get());
    Json::obj(vec![
        ("designs", Json::num(stats.designs as u64)),
        ("cache_hits", Json::num(stats.cache_hits)),
        ("cache_misses", Json::num(stats.cache_misses)),
        ("cache_evictions", Json::num(stats.cache_evictions)),
        ("cached_verdicts", Json::num(stats.cached_verdicts as u64)),
        ("predicted_races", Json::num(stats.predicted_races)),
        ("clauses_banked", Json::num(stats.clauses_banked)),
        ("datapath_facts", Json::num(stats.datapath_facts)),
        ("estg_conflicts", Json::num(stats.estg_conflicts)),
        ("quarantined_jobs", Json::num(stats.quarantined_jobs)),
        ("timed_out_jobs", Json::num(stats.timed_out_jobs)),
        ("workers_respawned", Json::num(stats.workers_respawned)),
        ("workers_alive", Json::num(stats.workers_alive as u64)),
        ("queue_depth", Json::num(stats.queue_depth as u64)),
        ("running_jobs", Json::num(stats.running_jobs as u64)),
        ("loaded_snapshots", count("server_snapshots_loaded_total")),
        ("durability", Json::str(durability)),
        (
            "snapshots_rejected_at_boot",
            count("server_snapshots_rejected_at_boot_total"),
        ),
        (
            "boot_replayed_records",
            count("server_boot_replayed_records_total"),
        ),
        (
            "journal_quarantined_bytes",
            count("server_journal_quarantined_bytes_total"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_wire_round_trip() {
        let design = DesignHash(0x0123_4567_89ab_cdef);
        assert_eq!(design_from_wire(&design_to_wire(design)), Some(design));
        assert_eq!(design_from_wire("nonsense"), None);
        assert_eq!(design_from_wire("d123"), None);
        assert_eq!(design_from_wire("dzzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn error_replies_are_structured() {
        let reply = error_reply(ErrorCode::BadJson, "expected a value at byte 0");
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        let error = reply.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("bad_json"));
        assert!(error.get("message").unwrap().as_str().is_some());
    }
}
