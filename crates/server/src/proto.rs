//! Wire-protocol vocabulary: request decoding helpers, response encoding,
//! and the hex transport for binary snapshots.
//!
//! Every frame is one line of JSON. Requests carry an `"op"` member naming
//! the operation; responses always carry `"ok"` — `true` with the payload
//! inline, or `false` with an `"error": {"code", "message"}` object. A
//! malformed frame is answered with a structured error on the same
//! connection, never a dropped socket: batch tooling on the other end wants
//! a diagnosis, not a reconnect loop.
//!
//! Job results and verdicts, the bulk of a busy server's replies, are
//! written straight to text by one encoder each and spliced into their
//! reply as [`Json::Raw`]: no per-result tree is built. Every other payload
//! is a [`Json`] tree.

use crate::json::{write_escaped, write_number, Json};
use std::fmt::{self, Write as _};
use std::time::Duration;
use wlac_atpg::Verdict;
use wlac_service::{BatchId, DesignHash, JobProgress, JobResult, ServiceStats};
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

/// Runs a text encoder into a fresh string and wraps the text for splicing
/// into a reply verbatim.
fn encoded(encode: impl FnOnce(&mut String) -> fmt::Result) -> Json {
    let mut text = String::new();
    // Writing into a `String` cannot fail.
    let _ = encode(&mut text);
    Json::Raw(text)
}

/// Writes a verdict for the wire: its label plus the fields of its variant
/// (`proved` and `frames` of a hold, `frames` of an absent witness,
/// `trace_cycles` of a trace, `reason` of an unknown, `budget_ms` of a
/// timeout). The one verdict encoder: `results`/`wait` replies, `subscribe`
/// verdict frames and `trace_check` all write through it.
fn write_verdict(out: &mut String, verdict: &Verdict) -> fmt::Result {
    out.push_str("{\"label\":");
    write_escaped(out, verdict.label())?;
    match verdict {
        Verdict::Holds { proved, frames } => {
            write!(out, ",\"proved\":{proved},\"frames\":{frames}")?;
        }
        Verdict::WitnessAbsent { frames } => write!(out, ",\"frames\":{frames}")?,
        Verdict::Violated { trace } | Verdict::WitnessFound { trace } => {
            write!(out, ",\"trace_cycles\":{}", trace.len())?;
        }
        Verdict::Unknown { reason } => {
            out.push_str(",\"reason\":");
            write_escaped(out, reason)?;
        }
        Verdict::Timeout { budget } => write!(out, ",\"budget_ms\":{}", budget.as_millis())?,
    }
    out.push('}');
    Ok(())
}

/// Writes one job result for the wire: property, design, verdict, winner
/// (`null` when none), `from_cache`, `engines_spawned` and `wall_ms`, in
/// that order. The one result encoder.
fn write_job_result(out: &mut String, result: &JobResult) -> fmt::Result {
    out.push_str("{\"property\":");
    write_escaped(out, &result.property)?;
    write!(out, ",\"design\":\"{}\",\"verdict\":", result.design)?;
    write_verdict(out, &result.verdict)?;
    out.push_str(",\"winner\":");
    match result.winner {
        Some(engine) => write_escaped(out, engine.name())?,
        None => out.push_str("null"),
    }
    write!(
        out,
        ",\"from_cache\":{},\"engines_spawned\":{},\"wall_ms\":",
        result.from_cache, result.engines_spawned
    )?;
    write_number(out, result.wall.as_secs_f64() * 1e3)?;
    out.push('}');
    Ok(())
}

/// Encodes a verdict for the wire, as every job result carries it: the
/// `verdict` member of a `trace_check` reply.
pub fn verdict_to_wire(verdict: &Verdict) -> Json {
    encoded(|out| write_verdict(out, verdict))
}

/// The `results` and `wait` reply: `{"ok":true,"results":[…]}`, the list
/// written straight to text, one result after another.
pub fn results_reply(results: &[JobResult]) -> Json {
    let list = encoded(|out| {
        out.push('[');
        for (i, result) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_job_result(out, result)?;
        }
        out.push(']');
        Ok(())
    });
    ok_reply(vec![("results", list)])
}

/// A `subscribe` stream's `verdict` frame: slot `index` of `batch` and its
/// result.
pub fn verdict_frame(batch: BatchId, index: usize, result: &JobResult) -> Json {
    ok_reply(vec![
        ("event", Json::str("verdict")),
        ("batch", Json::num(batch.raw())),
        ("index", Json::num(index as u64)),
        ("result", encoded(|out| write_job_result(out, result))),
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
    use wlac_atpg::Trace;
    use wlac_portfolio::Engine;

    /// One result per verdict variant, with and without a winner, and an
    /// `unknown` reason that needs every kind of escape.
    fn every_verdict() -> Vec<JobResult> {
        let trace = |cycles| Trace {
            initial_state: Vec::new(),
            inputs: vec![Vec::new(); cycles],
        };
        let result =
            |property: &str, verdict, winner, from_cache, engines_spawned, wall| JobResult {
                property: property.to_string(),
                design: DesignHash(0x0123_4567_89ab_cdef),
                verdict,
                winner,
                from_cache,
                engines_spawned,
                wall,
            };
        vec![
            result(
                "p2",
                Verdict::Holds {
                    proved: true,
                    frames: 8,
                },
                Some(Engine::Atpg),
                false,
                1,
                Duration::from_micros(1500),
            ),
            result(
                "p3",
                Verdict::Holds {
                    proved: false,
                    frames: 6,
                },
                Some(Engine::SatBmc),
                true,
                0,
                Duration::from_nanos(123_456_789),
            ),
            result(
                "p1",
                Verdict::Violated { trace: trace(3) },
                Some(Engine::RandomSim),
                false,
                3,
                Duration::from_millis(2),
            ),
            result(
                "p4",
                Verdict::WitnessFound { trace: trace(64) },
                None,
                true,
                0,
                Duration::ZERO,
            ),
            result(
                "p6",
                Verdict::WitnessAbsent { frames: 8 },
                Some(Engine::Atpg),
                false,
                2,
                Duration::from_nanos(7),
            ),
            result(
                "odd \"name\"",
                Verdict::Unknown {
                    reason: "say \"hi\" \\ then\nagain \u{1} é".into(),
                },
                None,
                false,
                3,
                Duration::from_secs(1),
            ),
            result(
                "p10",
                Verdict::Timeout {
                    budget: Duration::from_secs(30),
                },
                None,
                false,
                2,
                Duration::from_millis(30_001),
            ),
        ]
    }

    #[test]
    fn results_and_verdicts_go_to_the_wire_byte_for_byte() {
        let results = every_verdict();
        assert_eq!(
            results_reply(&results).to_string(),
            concat!(
                r#"{"ok":true,"results":["#,
                r#"{"property":"p2","design":"d0123456789abcdef","verdict":{"label":"proved","proved":true,"frames":8},"winner":"atpg","from_cache":false,"engines_spawned":1,"wall_ms":1.5},"#,
                r#"{"property":"p3","design":"d0123456789abcdef","verdict":{"label":"holds(bound)","proved":false,"frames":6},"winner":"sat-bmc","from_cache":true,"engines_spawned":0,"wall_ms":123.456789},"#,
                r#"{"property":"p1","design":"d0123456789abcdef","verdict":{"label":"violated","trace_cycles":3},"winner":"random-sim","from_cache":false,"engines_spawned":3,"wall_ms":2},"#,
                r#"{"property":"p4","design":"d0123456789abcdef","verdict":{"label":"witness","trace_cycles":64},"winner":null,"from_cache":true,"engines_spawned":0,"wall_ms":0},"#,
                r#"{"property":"p6","design":"d0123456789abcdef","verdict":{"label":"no witness","frames":8},"winner":"atpg","from_cache":false,"engines_spawned":2,"wall_ms":0.000007},"#,
                r#"{"property":"odd \"name\"","design":"d0123456789abcdef","verdict":{"label":"unknown","reason":"say \"hi\" \\ then\nagain \u0001 é"},"winner":null,"from_cache":false,"engines_spawned":3,"wall_ms":1000},"#,
                r#"{"property":"p10","design":"d0123456789abcdef","verdict":{"label":"timeout","budget_ms":30000},"winner":null,"from_cache":false,"engines_spawned":2,"wall_ms":30001}"#,
                r#"]}"#,
            )
        );
        assert_eq!(
            verdict_frame(BatchId::from_raw(7), 3, &results[2]).to_string(),
            concat!(
                r#"{"ok":true,"event":"verdict","batch":7,"index":3,"result":"#,
                r#"{"property":"p1","design":"d0123456789abcdef","verdict":{"label":"violated","trace_cycles":3},"winner":"random-sim","from_cache":false,"engines_spawned":3,"wall_ms":2}}"#,
            )
        );
        // `trace_check`'s verdict member.
        assert_eq!(
            verdict_to_wire(&results[5].verdict).to_string(),
            r#"{"label":"unknown","reason":"say \"hi\" \\ then\nagain \u0001 é"}"#
        );
        // A reply is still one line, and parses back.
        let text = results_reply(&results).to_string();
        assert!(!text.contains('\n'));
        let parsed = Json::parse(&text).expect("reparse");
        let reasons: Vec<_> = parsed
            .get("results")
            .and_then(Json::as_arr)
            .expect("results")
            .iter()
            .filter_map(|r| r.get("verdict")?.get("reason")?.as_str())
            .collect();
        assert_eq!(reasons, ["say \"hi\" \\ then\nagain \u{1} é"]);
    }

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
