//! The line-delimited JSON wire protocol.
//!
//! One JSON object per line in each direction. Requests carry a `cmd`
//! field (`corner`, `signoff`, `stats`, `shutdown`); everything the daemon
//! sends carries an `event` field. Events for one job are built **once**
//! and the identical serialized line is written to every subscriber, so
//! coalesced clients receive byte-identical artifacts by construction.
//!
//! Corner requests are validated through the same [`CornerSpec`] parser
//! as `CRYO_CORNERS`, so the daemon admits exactly the corner vocabulary
//! the batch farm does — same temperature range, same millivolt VDD grid,
//! same process names — with the same error strings.

use cryo_cells::cache::content_digest;
use cryo_core::corners::{Corner, CornerSpec};
use cryo_core::supervise::{PipelineEvent, Stage};
use cryo_core::CoreError;
use serde::{Serialize, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Characterize one PVT corner.
    Corner {
        /// The validated corner.
        corner: Corner,
        /// Client deadline, milliseconds; admission sheds the request if
        /// the estimated queue wait plus service time exceeds it.
        deadline_ms: Option<u64>,
    },
    /// Run the full supervised signoff pipeline.
    Signoff {
        /// Client deadline, milliseconds; propagated into the
        /// supervisor's overall/stage budgets.
        deadline_ms: Option<u64>,
        /// Stop after this stage's checkpoint commits (the protocol-level
        /// mirror of `CRYO_KILL_AFTER_STAGE`, used by the crash drills).
        halt_after: Option<Stage>,
    },
    /// Snapshot the daemon's counters.
    Stats,
    /// Drain and stop the daemon.
    Shutdown,
}

/// Parse one request line.
///
/// # Errors
///
/// A human-readable reason naming the offending field; the daemon returns
/// it verbatim in a `bad_request` error event.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("not a JSON object: {e}"))?;
    let cmd = v
        .get("cmd")
        .as_str()
        .ok_or_else(|| "missing string field \"cmd\"".to_string())?;
    match cmd {
        "corner" => {
            let temp = num_field(&v, "temp")?;
            let vdd = num_field(&v, "vdd")?;
            let process = v
                .get("process")
                .as_str()
                .unwrap_or("tt") // same default as CornerSpec's P axis
                .to_string();
            // Reuse the CRYO_CORNERS validator wholesale: range checks,
            // the 1 mV grid, and process names all come from one place.
            let spec = CornerSpec::parse(&format!("T={temp};V={vdd};P={process}"))
                .map_err(|e| format!("invalid corner: {e}"))?;
            let corner = *spec
                .corners()
                .first()
                .ok_or_else(|| "corner spec produced no corners".to_string())?;
            Ok(Request::Corner {
                corner,
                deadline_ms: opt_ms_field(&v)?,
            })
        }
        "signoff" => {
            let halt_after = match v.get("halt_after").as_str() {
                None => None,
                Some(name) => Some(
                    Stage::ALL
                        .into_iter()
                        .find(|s| s.name() == name)
                        .ok_or_else(|| format!("unknown stage {name:?} in \"halt_after\""))?,
                ),
            };
            Ok(Request::Signoff {
                deadline_ms: opt_ms_field(&v)?,
                halt_after,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown cmd {other:?} (expected corner, signoff, stats, or shutdown)"
        )),
    }
}

fn num_field(v: &Value, name: &str) -> Result<f64, String> {
    v.get(name)
        .as_f64()
        .ok_or_else(|| format!("missing numeric field {name:?}"))
}

fn opt_ms_field(v: &Value) -> Result<Option<u64>, String> {
    match v.get("deadline_ms") {
        Value::Null => Ok(None),
        other => {
            let ms = other
                .as_f64()
                .ok_or_else(|| "\"deadline_ms\" is not a number".to_string())?;
            if !(ms.is_finite() && ms >= 1.0) {
                return Err("\"deadline_ms\" must be a positive millisecond count".into());
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(Some(ms as u64))
        }
    }
}

// ----------------------------------------------------------------------
// Event builders (daemon → client)
// ----------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn event(kind: &str, mut fields: Vec<(&str, Value)>) -> Value {
    fields.insert(0, ("event", Value::String(kind.to_string())));
    obj(fields)
}

/// `accepted`: the request was admitted; `coalesced` is `true` when it
/// attached to an already in-flight job for the same key.
#[must_use]
pub fn ev_accepted(req: &str, job: &str, coalesced: bool, queue_depth: usize) -> Value {
    event(
        "accepted",
        vec![
            ("req", Value::String(req.to_string())),
            ("job", Value::String(job.to_string())),
            ("coalesced", Value::Bool(coalesced)),
            ("queue_depth", (queue_depth as f64).to_value()),
        ],
    )
}

/// `overloaded`: structured load-shed instead of unbounded latency.
#[must_use]
pub fn ev_overloaded(retry_after_ms: u64, queue_depth: usize, reason: &str) -> Value {
    event(
        "overloaded",
        vec![
            ("retry_after_ms", (retry_after_ms as f64).to_value()),
            ("queue_depth", (queue_depth as f64).to_value()),
            ("reason", Value::String(reason.to_string())),
        ],
    )
}

/// A supervisor [`PipelineEvent`] rendered for the wire.
#[must_use]
pub fn ev_pipeline(e: &PipelineEvent) -> Value {
    match e {
        PipelineEvent::StageStarted { stage, attempt } => event(
            "stage",
            vec![
                ("stage", Value::String(stage.name().to_string())),
                ("state", Value::String("started".to_string())),
                ("attempt", f64::from(*attempt).to_value()),
            ],
        ),
        PipelineEvent::StageFinished {
            stage,
            from_checkpoint,
            attempts,
            wall_s,
        } => event(
            "stage",
            vec![
                ("stage", Value::String(stage.name().to_string())),
                ("state", Value::String("finished".to_string())),
                ("from_checkpoint", Value::Bool(*from_checkpoint)),
                ("attempts", f64::from(*attempts).to_value()),
                ("wall_s", wall_s.to_value()),
            ],
        ),
        PipelineEvent::AuditSettled {
            stage,
            findings,
            repaired,
        } => event(
            "audit",
            vec![
                ("stage", Value::String(stage.name().to_string())),
                ("findings", (*findings as f64).to_value()),
                ("repaired", (*repaired as f64).to_value()),
            ],
        ),
        PipelineEvent::SurrogateApplied {
            predicted,
            fallbacks,
        } => event(
            "surrogate",
            vec![
                ("predicted", (*predicted as f64).to_value()),
                ("fallbacks", (*fallbacks as f64).to_value()),
            ],
        ),
    }
}

/// The `done` line: the job finished. `artifact` is the result payload,
/// already serialized; the line's `digest` is the content fingerprint of
/// exactly those bytes (`content_digest`, the hash of the library cache
/// keys and checkpoint checksums). The artifact is spliced in last
/// without being serialized again, so the line is byte-identical to
/// serializing the whole event.
#[must_use]
pub fn done_line(
    req: &str,
    job: &str,
    artifact: &str,
    dc: u64,
    tran: u64,
    arc_evals: u64,
    wall_ms: u64,
) -> String {
    let head = serde_json::to_string(&event(
        "done",
        vec![
            ("req", Value::String(req.to_string())),
            ("job", Value::String(job.to_string())),
            ("digest", Value::String(content_digest(artifact.as_bytes()))),
            ("dc_solves", (dc as f64).to_value()),
            ("tran_solves", (tran as f64).to_value()),
            ("arc_evals", (arc_evals as f64).to_value()),
            ("wall_ms", (wall_ms as f64).to_value()),
        ],
    ))
    .expect("events serialize");
    let head = head.strip_suffix('}').expect("an event is an object");
    format!("{head},\"artifact\":{artifact}}}")
}

/// `error`: a structured failure; `kind` is a stable machine-matchable
/// tag, `message` the human-readable detail.
#[must_use]
pub fn ev_error(kind: &str, message: &str) -> Value {
    event(
        "error",
        vec![
            ("kind", Value::String(kind.to_string())),
            ("message", Value::String(message.to_string())),
        ],
    )
}

/// The stable error tag for a flow error, so clients can branch without
/// parsing prose.
#[must_use]
pub fn error_kind(e: &CoreError) -> &'static str {
    match e {
        CoreError::Config { .. } => "config",
        CoreError::StageTimeout { .. } => "stage_timeout",
        CoreError::AuditFailed { .. } => "audit_failed",
        CoreError::Cancelled { .. } => "cancelled",
        CoreError::Coverage { .. } => "coverage",
        CoreError::FarmCoverage { .. } => "farm_coverage",
        _ => "internal",
    }
}

/// `shutdown`: acknowledgement that the daemon is draining.
#[must_use]
pub fn ev_shutdown() -> Value {
    event("shutdown", vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryo_core::corners::Process;

    #[test]
    fn corner_requests_reuse_the_farm_validator() {
        let req = parse_request(r#"{"cmd":"corner","temp":300,"vdd":0.7,"process":"ss"}"#)
            .expect("valid corner");
        let Request::Corner {
            corner,
            deadline_ms,
        } = req
        else {
            panic!("wrong variant");
        };
        assert_eq!(corner.process, Process::Ss);
        assert!((corner.temp - 300.0).abs() < 1e-12);
        assert!(deadline_ms.is_none());

        // Exactly the farm's rejections, with the farm's error strings.
        for (line, needle) in [
            (
                r#"{"cmd":"corner","temp":999,"vdd":0.7}"#,
                "calibrated range",
            ),
            (r#"{"cmd":"corner","temp":300,"vdd":0.7005}"#, "1 mV grid"),
            (
                r#"{"cmd":"corner","temp":300,"vdd":0.7,"process":"fs"}"#,
                "unknown process corner",
            ),
            (r#"{"cmd":"corner","vdd":0.7}"#, "missing numeric field"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn signoff_halt_after_names_must_be_real_stages() {
        let req = parse_request(r#"{"cmd":"signoff","halt_after":"sta300","deadline_ms":5000}"#)
            .expect("valid signoff");
        assert_eq!(
            req,
            Request::Signoff {
                deadline_ms: Some(5000),
                halt_after: Some(Stage::Sta300),
            }
        );
        let err = parse_request(r#"{"cmd":"signoff","halt_after":"sta"}"#).unwrap_err();
        assert!(err.contains("unknown stage"), "{err}");
        let err = parse_request(r#"{"cmd":"signoff","deadline_ms":0}"#).unwrap_err();
        assert!(err.contains("positive millisecond"), "{err}");
    }

    #[test]
    fn garbage_lines_are_structured_rejections() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").unwrap_err().contains("cmd"));
        assert!(parse_request(r#"{"cmd":"dance"}"#)
            .unwrap_err()
            .contains("unknown cmd"));
    }

    #[test]
    fn events_carry_their_discriminant_first() {
        let line = serde_json::to_string(&ev_accepted("r1", "corner/x", true, 2)).unwrap();
        assert!(line.starts_with(r#"{"event":"accepted""#), "{line}");
        let line = serde_json::to_string(&ev_overloaded(250, 4, "queue full")).unwrap();
        assert!(line.contains("retry_after_ms"), "{line}");
    }

    #[test]
    fn done_line_matches_serializing_the_whole_event() {
        let artifact = obj(vec![
            ("lib", Value::String("quote \" and \u{1F600}".into())),
            ("report", Value::Array(vec![2.0.to_value(), Value::Null])),
        ]);
        let payload = serde_json::to_string(&artifact).unwrap();
        let digest = content_digest(payload.as_bytes());
        let whole = event(
            "done",
            vec![
                ("req", Value::String("r0001".into())),
                ("job", Value::String("corner/x".into())),
                ("digest", Value::String(digest)),
                ("dc_solves", 1.0.to_value()),
                ("tran_solves", 2.0.to_value()),
                ("arc_evals", 3.0.to_value()),
                ("wall_ms", 4.0.to_value()),
                ("artifact", artifact),
            ],
        );
        assert_eq!(
            done_line("r0001", "corner/x", &payload, 1, 2, 3, 4),
            serde_json::to_string(&whole).unwrap()
        );
    }
}
