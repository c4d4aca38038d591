//! Structured characterization outcome reporting.
//!
//! Robust library characterization never throws away a whole corner for
//! one bad cell: each cell lands in one of the [`CellStatus`] buckets and
//! the [`CharReport`] carries the full per-cell record — attempts spent,
//! the fault that killed exhausted cells, and where derated models came
//! from — so callers can enforce a coverage floor and operators can see
//! exactly what degraded.

use cryo_liberty::{AuditReport, ResidualStats};
use serde::{Deserialize, Serialize};

use crate::checkpoint::ScrubReport;

/// How a cell ended up in (or out of) the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Characterized from scratch in this run.
    Characterized,
    /// Restored from a per-cell checkpoint written by an earlier run.
    Resumed,
    /// Loaded from the whole-library disk cache.
    Cached,
    /// Characterization exhausted the retry ladder; the model was derived
    /// from the nearest drive-strength sibling (see `derated_from`).
    Derated,
    /// Characterization exhausted the retry ladder and no sibling could
    /// stand in; the cell is absent from the library.
    Failed,
    /// The cell's tables were emitted by a trained surrogate model instead
    /// of SPICE (see `cryo-surrogate`); zero simulations were spent on it.
    Predicted,
}

/// Summary of a surrogate-predicted corner, carried on the [`CharReport`]
/// the prediction stands in for. Present only when a surrogate actually
/// ran, and serialized only then, so SPICE-characterized reports stay
/// byte-identical to the pre-surrogate schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateSummary {
    /// FNV-64 digest of the trained model's exact weight bit patterns.
    pub model_hash: String,
    /// Held-out residual statistics of the model.
    pub residual: ResidualStats,
    /// Cells whose tables came from the model.
    pub predicted: usize,
    /// Cells the surrogate could not be trusted on (held-out residual or
    /// audit finding out of bound) that fell back to per-cell SPICE
    /// re-characterization, in name order.
    pub fallbacks: Vec<String>,
}

/// Per-cell characterization outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Cell name.
    pub name: String,
    /// Final status.
    pub status: CellStatus,
    /// Characterization attempts spent (0 for resumed/cached cells).
    pub attempts: u32,
    /// Description of the last fault, for exhausted cells (also kept on
    /// derated cells so the root cause survives the recovery).
    pub fault: Option<String>,
    /// The sibling cell a derated model was scaled from.
    pub derated_from: Option<String>,
}

impl CellOutcome {
    /// Whether the cell made it into the library in some form.
    #[must_use]
    pub fn in_library(&self) -> bool {
        self.status != CellStatus::Failed
    }
}

/// The full per-cell record of a library characterization run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CharReport {
    /// One outcome per requested cell. The characterization engine returns
    /// reports sorted by cell name (see [`CharReport::sort_by_name`]), so
    /// two runs over the same set compare equal whenever their per-cell
    /// decisions match — regardless of request order or of how a parallel
    /// run scheduled the work.
    pub outcomes: Vec<CellOutcome>,
    /// Quarantined `*.corrupt` checkpoint files deleted by bounded pruning
    /// at the end of the run (the newest few per cell are kept as
    /// evidence). Zero when no checkpoint store was in play.
    pub quarantined_pruned: usize,
    /// Stale atomic-write tmp files (orphans of `kill -9` mid-store) swept
    /// when the checkpoint store was opened. Serialized only when nonzero,
    /// so undisturbed runs keep their pre-reaper bytes.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub stale_tmp_reaped: usize,
    /// Cells whose checkpoint write was shed because the store hit
    /// `ENOSPC` — the structured warning that the run completed but its
    /// durability was degraded. Serialized only when nonzero.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub checkpoints_shed: usize,
    /// What the self-healing scrub at store open found, when it found
    /// damage (truncated entries, bit-rot, orphan tmp files). `None` —
    /// and omitted from the serialization — for undamaged stores.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scrub: Option<ScrubReport>,
    /// Findings from the signoff audit firewall, when one ran over this
    /// corner. Clean reports omit the field entirely, so clean artifacts
    /// (cache files, golden snapshots) stay byte-identical to the
    /// pre-audit serialization.
    #[serde(default, skip_serializing_if = "AuditReport::is_clean")]
    pub audit: AuditReport,
    /// Surrogate-prediction summary, when this corner's tables came from a
    /// trained model rather than SPICE. `None` (and omitted from the
    /// serialization) for every characterized corner.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub surrogate: Option<SurrogateSummary>,
}

fn is_zero(n: &usize) -> bool {
    *n == 0
}

impl CharReport {
    /// Record an outcome.
    pub fn push(&mut self, outcome: CellOutcome) {
        self.outcomes.push(outcome);
    }

    /// Sort outcomes into the canonical by-cell-name order. Cell names are
    /// unique within a run, so this is a total order and reports become
    /// directly comparable with `==` across job counts and request orders.
    pub fn sort_by_name(&mut self) {
        self.outcomes.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Look up the outcome for a cell.
    #[must_use]
    pub fn outcome(&self, name: &str) -> Option<&CellOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// Fraction of requested cells present in the library (characterized,
    /// resumed, cached, or derated), in `[0, 1]`. Empty reports count as
    /// full coverage.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let present = self.outcomes.iter().filter(|o| o.in_library()).count();
        present as f64 / self.outcomes.len() as f64
    }

    /// Outcomes with the given status.
    #[must_use]
    pub fn with_status(&self, status: CellStatus) -> Vec<&CellOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.status == status)
            .collect()
    }

    /// Cells that exhausted the ladder and are absent from the library.
    #[must_use]
    pub fn failed(&self) -> Vec<&CellOutcome> {
        self.with_status(CellStatus::Failed)
    }

    /// Cells standing in for a failed characterization via sibling derating.
    #[must_use]
    pub fn derated(&self) -> Vec<&CellOutcome> {
        self.with_status(CellStatus::Derated)
    }

    /// Count of cells restored from checkpoints instead of re-simulated.
    #[must_use]
    pub fn resumed_count(&self) -> usize {
        self.with_status(CellStatus::Resumed).len()
    }

    /// One-line human summary, e.g.
    /// `168/169 cells (99.4 %): 150 characterized, 17 resumed, 1 derated, 1 failed`.
    #[must_use]
    pub fn summary(&self) -> String {
        let total = self.outcomes.len();
        let count = |s: CellStatus| self.with_status(s).len();
        let mut parts = Vec::new();
        for (status, label) in [
            (CellStatus::Characterized, "characterized"),
            (CellStatus::Resumed, "resumed"),
            (CellStatus::Cached, "cached"),
            (CellStatus::Predicted, "predicted"),
            (CellStatus::Derated, "derated"),
            (CellStatus::Failed, "failed"),
        ] {
            let n = count(status);
            if n > 0 {
                parts.push(format!("{n} {label}"));
            }
        }
        let in_lib = self.outcomes.iter().filter(|o| o.in_library()).count();
        format!(
            "{in_lib}/{total} cells ({:.1} %): {}",
            self.coverage() * 100.0,
            if parts.is_empty() {
                "empty".to_string()
            } else {
                parts.join(", ")
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, status: CellStatus) -> CellOutcome {
        CellOutcome {
            name: name.into(),
            status,
            attempts: match status {
                CellStatus::Characterized => 1,
                CellStatus::Derated | CellStatus::Failed => 3,
                _ => 0,
            },
            fault: matches!(status, CellStatus::Derated | CellStatus::Failed)
                .then(|| "tran analysis failed to converge".to_string()),
            derated_from: (status == CellStatus::Derated).then(|| "INVx2".to_string()),
        }
    }

    #[test]
    fn coverage_counts_everything_but_failed() {
        let mut r = CharReport::default();
        r.push(outcome("INVx1", CellStatus::Characterized));
        r.push(outcome("INVx2", CellStatus::Resumed));
        r.push(outcome("INVx4", CellStatus::Derated));
        r.push(outcome("NANDx1", CellStatus::Failed));
        assert!((r.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(r.failed().len(), 1);
        assert_eq!(r.derated().len(), 1);
        assert_eq!(r.resumed_count(), 1);
        assert_eq!(r.outcome("NANDx1").unwrap().attempts, 3);
        assert!(r.summary().contains("3/4 cells"));
    }

    #[test]
    fn empty_report_is_fully_covered() {
        let r = CharReport::default();
        assert!((r.coverage() - 1.0).abs() < 1e-12);
        assert!(r.failed().is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = CharReport::default();
        r.push(outcome("INVx1", CellStatus::Characterized));
        r.push(outcome("INVx4", CellStatus::Derated));
        let json = serde_json::to_string(&r).unwrap();
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.outcome("INVx4").unwrap().derated_from.as_deref(),
            Some("INVx2")
        );
    }

    #[test]
    fn clean_audit_is_invisible_in_serialization() {
        // Byte-identity contract: a clean run must serialize exactly as the
        // pre-audit format did, so cached libraries, checkpoints, and golden
        // snapshots survive the firewall's introduction unchanged.
        let mut r = CharReport::default();
        r.push(outcome("INVx1", CellStatus::Characterized));
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("audit"),
            "clean audit must be omitted: {json}"
        );
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert!(back.audit.is_clean());

        r.audit.push(cryo_liberty::Finding::new(
            "charlib300",
            "INVx1/A->Y/cell_rise[0,0]".into(),
            "delay_positive",
            -4e-12,
            "> 0".into(),
        ));
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("delay_positive"));
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn zero_reap_count_is_invisible_in_serialization() {
        // Same byte-identity contract again: a run that swept nothing must
        // serialize exactly as the pre-reaper schema, and pre-reaper
        // artifacts deserialize with a zero count.
        let mut r = CharReport::default();
        r.push(outcome("INVx1", CellStatus::Characterized));
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("stale_tmp_reaped"),
            "zero count must be omitted: {json}"
        );
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stale_tmp_reaped, 0);

        r.stale_tmp_reaped = 3;
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("stale_tmp_reaped"), "{json}");
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn clean_durability_fields_are_invisible_in_serialization() {
        // Byte-identity contract, durability edition: a run with nothing
        // shed and a clean scrub serializes exactly as the pre-chaos-work
        // schema; degraded runs round-trip their evidence.
        let mut r = CharReport::default();
        r.push(outcome("INVx1", CellStatus::Characterized));
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("checkpoints_shed"), "{json}");
        assert!(!json.contains("scrub"), "{json}");
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.checkpoints_shed, 0);
        assert!(back.scrub.is_none());

        r.checkpoints_shed = 12;
        r.scrub = Some(ScrubReport {
            scanned: 169,
            truncated: vec!["INVx1".into()],
            bit_rot: vec!["NANDx1".into()],
            orphan_tmp: 2,
        });
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("checkpoints_shed"), "{json}");
        assert!(json.contains("bit_rot"), "{json}");
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn absent_surrogate_is_invisible_in_serialization() {
        // Same byte-identity contract as the audit field: reports from
        // SPICE-characterized corners must serialize exactly as before the
        // surrogate subsystem existed.
        let mut r = CharReport::default();
        r.push(outcome("INVx1", CellStatus::Characterized));
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("surrogate"),
            "absent summary must be omitted: {json}"
        );
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert!(back.surrogate.is_none());

        r.outcomes[0].status = CellStatus::Predicted;
        r.surrogate = Some(SurrogateSummary {
            model_hash: "af63dc4c8601ec8c".into(),
            residual: ResidualStats {
                n_train: 960,
                n_holdout: 240,
                mean_abs_rel_err: 0.02,
                max_abs_rel_err: 0.11,
            },
            predicted: 1,
            fallbacks: vec!["NANDx1".into()],
        });
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("model_hash"));
        let back: CharReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(back.summary().contains("1 predicted"));
    }
}
