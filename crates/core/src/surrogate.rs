//! The learned-surrogate stage of the flow: policy knob and the
//! prediction-with-fallback orchestration.
//!
//! `cryo-surrogate` turns one characterized warm corner plus a small
//! SPICE-probed sample of the target corner into a full predicted library.
//! This module owns everything about *trust*: the [`SurrogatePolicy`]
//! selected by `CRYO_SURROGATE`, the audit firewall pass every predicted
//! library must survive, and the per-cell SPICE fallback for cells the
//! model cannot be trusted on — driven by the same quarantine-and-repair
//! machinery the firewall uses for corrupted characterizations, and
//! provably never re-simulating a cell the surrogate got right.

use cryo_cells::{
    cache, topology, CellStatus, CharConfig, CharReport, Characterizer, CheckpointStore,
    SurrogateSummary,
};
use cryo_device::CornerScalars;
use cryo_liberty::{audit_cross_corner, audit_library, Library, Provenance};
use cryo_spice::fault;
use cryo_surrogate::{fnv64, TrainConfig};

use crate::flow::CryoFlow;
use crate::{CoreError, Result};

/// Whether (and how) predicted libraries replace SPICE characterization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SurrogatePolicy {
    /// Never predict; every corner is SPICE-characterized. Exact
    /// pre-surrogate behavior.
    #[default]
    Off,
    /// Predict the cold corner from the warm one, then fall back to
    /// per-cell SPICE for any cell whose held-out residual exceeds
    /// `max_rel_err` or that the audit firewall flags.
    PredictWithFallback {
        /// Per-cell worst-case relative-error bound above which the cell's
        /// prediction is distrusted and re-characterized.
        max_rel_err: f64,
    },
}

impl SurrogatePolicy {
    /// Parse `off` or `predict:<max_rel_err>` (case-insensitive).
    ///
    /// # Errors
    ///
    /// A human-readable reason when `s` names no policy or carries a
    /// non-positive / non-finite bound.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        if lower == "off" {
            return Ok(SurrogatePolicy::Off);
        }
        if let Some(bound) = lower.strip_prefix("predict:") {
            let max_rel_err: f64 = bound
                .parse()
                .map_err(|_| format!("bad max_rel_err {bound:?} (expected a number)"))?;
            if !(max_rel_err.is_finite() && max_rel_err > 0.0) {
                return Err(format!(
                    "max_rel_err must be finite and > 0, got {max_rel_err}"
                ));
            }
            return Ok(SurrogatePolicy::PredictWithFallback { max_rel_err });
        }
        Err(format!(
            "unknown surrogate policy {s:?} (expected off or predict:<max_rel_err>)"
        ))
    }

    /// The policy named by `CRYO_SURROGATE`, defaulting to `Off` when the
    /// variable is unset or malformed (the strict path is
    /// [`SurrogatePolicy::from_env_checked`], used by `validate_env`).
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("CRYO_SURROGATE")
            .ok()
            .and_then(|s| Self::parse(&s).ok())
            .unwrap_or_default()
    }

    /// Strictly parse `CRYO_SURROGATE`; unset means the default.
    ///
    /// # Errors
    ///
    /// The parse failure reason for a set-but-malformed variable.
    pub fn from_env_checked() -> std::result::Result<Self, String> {
        match std::env::var("CRYO_SURROGATE") {
            Ok(s) => Self::parse(&s),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Whether prediction is enabled.
    #[must_use]
    pub fn is_on(self) -> bool {
        self != SurrogatePolicy::Off
    }
}

impl CryoFlow {
    /// Predict the library at `temp` kelvin from the characterized `warm`
    /// library, with audit-gated per-cell SPICE fallback.
    ///
    /// The pipeline:
    ///
    /// 1. SPICE-characterize the **probe set** (every drive-1 cell) at the
    ///    target corner, with the usual checkpoint store (`*_surprobe`), so
    ///    probes are ground truth and resume across kills.
    /// 2. Train the surrogate on warm→probe table transfers
    ///    (byte-deterministic, epoch-checkpointed under `*_surmodel`).
    /// 3. Predict every cell's tables from its warm anchor and audit the
    ///    predicted library — the full firewall plus the cross-corner band
    ///    against `warm`. The surrogate path **always** audits, whatever
    ///    `CRYO_AUDIT` says: predictions are untrusted by construction.
    /// 4. Any cell flagged by the audit, or whose probe residual exceeds
    ///    `max_rel_err`, is individually re-characterized with SPICE via
    ///    the quarantine-repair path (`*_surfallback` store seeded with
    ///    every trusted prediction, so exactly the distrusted cells
    ///    simulate). Findings that survive the fallback are terminal.
    ///
    /// Predicted corners are **never** promoted to the library-level SPICE
    /// cache, and none of the surrogate's stores collide with
    /// characterization's — with the surrogate off, every SPICE artifact
    /// is byte-identical to a run where it never existed.
    ///
    /// # Errors
    ///
    /// [`CoreError::AuditFailed`] when findings survive the fallback;
    /// [`CoreError::Coverage`] below the floor; checkpoint I/O failures.
    pub fn surrogate_library_with_report(
        &self,
        temp: f64,
        warm: &Library,
        max_rel_err: f64,
    ) -> Result<(Library, CharReport)> {
        let cfg = self.config();
        let mut char_cfg = if temp < 150.0 {
            cfg.char_10k.clone()
        } else {
            cfg.char_300k.clone()
        };
        if cfg.jobs != 0 {
            char_cfg.jobs = cfg.jobs;
        }
        let stage = if temp < 150.0 {
            "charlib10_sur"
        } else {
            "charlib300_sur"
        };
        let _fault_guard = cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.effective_cards();
        let name = format!("cryo5_tt_0p70v_{}k", temp as u32);
        self.surrogate_corner(
            &name,
            stage,
            &char_cfg,
            temp,
            &nfet,
            &pfet,
            warm,
            max_rel_err,
        )
    }

    /// [`CryoFlow::surrogate_library_with_report`] for an arbitrary farm
    /// corner: predict the corner's library from its group's SPICE anchor,
    /// with the same always-on audit and per-cell fallback. Stage label is
    /// `<corner>_sur` and every store is keyed by the corner's own cards
    /// and grid, so farm predictions never collide with each other or with
    /// the legacy two-point flow.
    ///
    /// # Errors
    ///
    /// Same as [`CryoFlow::surrogate_library_with_report`].
    pub fn corner_surrogate_library_with_report(
        &self,
        corner: &crate::corners::Corner,
        warm: &Library,
        max_rel_err: f64,
    ) -> Result<(Library, CharReport)> {
        let char_cfg = self.corner_char_cfg(corner);
        let _fault_guard = self.config().fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.corner_cards(corner);
        self.surrogate_corner(
            &corner.lib_name(),
            &format!("{}_sur", corner.name()),
            &char_cfg,
            corner.temp,
            &nfet,
            &pfet,
            warm,
            max_rel_err,
        )
    }

    /// The shared predict-audit-fallback engine behind both surrogate
    /// entry points. Callers install the fault guard before deriving the
    /// cards, mirroring the characterization path.
    #[allow(clippy::too_many_arguments)]
    fn surrogate_corner(
        &self,
        name: &str,
        stage: &str,
        char_cfg: &CharConfig,
        temp: f64,
        nfet: &cryo_device::ModelCard,
        pfet: &cryo_device::ModelCard,
        warm: &Library,
        max_rel_err: f64,
    ) -> Result<(Library, CharReport)> {
        let cfg = self.config();
        let cells = topology::standard_cell_set();
        let probes: Vec<_> = cells.iter().filter(|c| c.drive == 1).cloned().collect();
        let probe_tag = cache::cell_set_tag(&probes);
        let key = cache::cache_key(nfet, pfet, char_cfg, &probe_tag)?;

        // 1. Ground-truth probes at the target corner.
        let probe_store = CheckpointStore::open(&cfg.cache_dir, &format!("{name}_surprobe"), &key)?;
        let engine = Characterizer::new(nfet, pfet, char_cfg.clone());
        let (probe_lib, _probe_report) = engine.characterize_library_robust(
            &format!("{name}_surprobe"),
            &probes,
            Some(&probe_store),
        );

        // 2. Train (or resume training) the transfer model.
        let warm_sc = CornerScalars::at(nfet, pfet, warm.vdd, warm.temperature);
        let cold_sc = CornerScalars::at(nfet, pfet, char_cfg.vdd, temp);
        let train_cfg = TrainConfig::default();
        let model_store = CheckpointStore::open(
            &cfg.cache_dir,
            &format!("{name}_surmodel"),
            &fnv64(&format!("{key}|{}", train_cfg.content_hash())),
        )?;
        let (surrogate, _outcome, dataset) = cryo_surrogate::fit(
            warm,
            &probe_lib,
            warm_sc,
            cold_sc,
            &train_cfg,
            Some(&model_store),
        );
        // The probe and fallback stores are pruned by the characterization
        // engine; epoch checkpoints quarantined here would otherwise grow
        // without bound across crash-looping training runs.
        let _ = model_store.prune_quarantined(cryo_cells::checkpoint::QUARANTINE_KEEP);
        let (residual, per_cell) = surrogate.residuals(&dataset);

        // 3. Predict and audit.
        let predicted = surrogate.predict_library(warm, name, residual);
        let audit_cfg = crate::audit::lib_audit_config(char_cfg);
        let mut audit = audit_library(stage, &predicted, &audit_cfg);
        audit.merge(audit_cross_corner(stage, warm, &predicted, &audit_cfg));

        // 4. Distrusted cells: audit findings ∪ out-of-bound probe residuals.
        let mut fallbacks = audit.offending_cells();
        for (cell, &worst) in &per_cell {
            if worst > max_rel_err && !fallbacks.contains(cell) {
                fallbacks.push(cell.clone());
            }
        }
        fallbacks.sort();

        let (mut lib, mut report) = if fallbacks.is_empty() {
            (predicted, CharReport::default())
        } else {
            let fb_store =
                CheckpointStore::open(&cfg.cache_dir, &format!("{name}_surfallback"), &key)?;
            for cell in predicted.cells() {
                if !fallbacks.contains(&cell.name) {
                    fb_store.store(cell)?;
                }
            }
            for off in &fallbacks {
                fb_store.remove(off);
            }
            let repair = Characterizer::new(nfet, pfet, char_cfg.clone()).with_generation(1);
            let (lib2, report2) = repair.characterize_library_robust(name, &cells, Some(&fb_store));
            let mut recheck = audit_library(stage, &lib2, &audit_cfg);
            recheck.merge(audit_cross_corner(stage, warm, &lib2, &audit_cfg));
            if !recheck.is_clean() {
                return Err(CoreError::AuditFailed {
                    stage: stage.to_string(),
                    report: recheck,
                });
            }
            fb_store.clear();
            (lib2, report2)
        };

        // Every non-fallback cell's tables came from the model, whatever
        // the repair pass's bookkeeping called them (`Resumed` — it loaded
        // them from the seeded store without simulating).
        if report.outcomes.is_empty() {
            report.outcomes = lib
                .cells()
                .iter()
                .map(|c| cryo_cells::CellOutcome {
                    name: c.name.clone(),
                    status: CellStatus::Predicted,
                    attempts: 0,
                    fault: None,
                    derated_from: None,
                })
                .collect();
        } else {
            for o in &mut report.outcomes {
                if !fallbacks.contains(&o.name) {
                    o.status = CellStatus::Predicted;
                    o.attempts = 0;
                }
            }
        }
        report.sort_by_name();
        let predicted_count = report
            .outcomes
            .iter()
            .filter(|o| o.status == CellStatus::Predicted)
            .count();
        report.surrogate = Some(SurrogateSummary {
            model_hash: surrogate.model_hash(),
            residual,
            predicted: predicted_count,
            fallbacks: fallbacks.clone(),
        });
        lib.provenance = Provenance::Predicted {
            model_hash: surrogate.model_hash(),
            residual,
        };

        let expected: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        let coverage = lib.coverage(&expected);
        if coverage < cfg.coverage_floor {
            return Err(CoreError::Coverage {
                corner: name.to_string(),
                coverage,
                floor: cfg.coverage_floor,
                missing: lib.missing_cells(&expected),
            });
        }
        Ok((lib, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_defaults_to_off() {
        assert_eq!(SurrogatePolicy::parse("off").unwrap(), SurrogatePolicy::Off);
        assert_eq!(
            SurrogatePolicy::parse("predict:0.35").unwrap(),
            SurrogatePolicy::PredictWithFallback { max_rel_err: 0.35 }
        );
        assert_eq!(
            SurrogatePolicy::parse("PREDICT:0.5").unwrap(),
            SurrogatePolicy::PredictWithFallback { max_rel_err: 0.5 }
        );
        assert!(SurrogatePolicy::parse("on").is_err());
        assert!(SurrogatePolicy::parse("predict:").is_err());
        assert!(SurrogatePolicy::parse("predict:-1").is_err());
        assert!(SurrogatePolicy::parse("predict:nan").is_err());
        assert!(SurrogatePolicy::parse("predict:inf").is_err());
        assert_eq!(SurrogatePolicy::default(), SurrogatePolicy::Off);
        assert!(SurrogatePolicy::PredictWithFallback { max_rel_err: 0.1 }.is_on());
        assert!(!SurrogatePolicy::Off.is_on());
    }
}
