//! The signoff audit firewall's pipeline layer.
//!
//! Every stage of the supervised pipeline has a physical-invariant audit
//! provided by the crate that owns the physics: `cryo-device` checks the
//! cryogenic Vth/SS shifts and calibrated parameter bounds, `cryo-liberty`
//! checks NLDM table health and the cross-corner delay band, `cryo-sta`
//! checks timing-report consistency, and `cryo-power` checks power
//! accounting. This module adapts those providers to the pipeline: it
//! converts per-layer findings into the shared [`Finding`] currency,
//! audits the supervisor's checkpointable artifacts, and defines the
//! [`AuditPolicy`] that decides what a finding does to the run.

use cryo_cells::CharConfig;
use cryo_device::ModelCard;
use cryo_liberty::{AuditConfig, AuditReport, Finding};
use cryo_power::PowerReport;

use crate::flow::{COOLING_BUDGET_10K, DECOHERENCE_TIME};
use crate::supervise::{ActivityArtifact, ClassifyArtifact, PowerCorner};

/// What an audit finding does to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditPolicy {
    /// Do not audit; exact pre-firewall behavior.
    Off,
    /// Audit every stage boundary; findings are recorded in the reports
    /// and printed as warnings, but never stop the run.
    #[default]
    Warn,
    /// Audit every stage boundary; findings quarantine the offending cells
    /// and trigger targeted re-characterization, and violations that
    /// survive repair (or have no repair path) raise
    /// [`crate::CoreError::AuditFailed`].
    Gate,
}

impl AuditPolicy {
    /// Parse `off` / `warn` / `gate` (case-insensitive).
    ///
    /// # Errors
    ///
    /// A human-readable reason when `s` names no policy.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(AuditPolicy::Off),
            "warn" => Ok(AuditPolicy::Warn),
            "gate" => Ok(AuditPolicy::Gate),
            other => Err(format!(
                "unknown audit policy {other:?} (expected off/warn/gate)"
            )),
        }
    }

    /// The policy named by `CRYO_AUDIT`, defaulting to `Warn` when the
    /// variable is unset or malformed (the strict path is
    /// [`AuditPolicy::from_env_checked`], used by `validate_env`).
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("CRYO_AUDIT")
            .ok()
            .and_then(|s| Self::parse(&s).ok())
            .unwrap_or_default()
    }

    /// Strictly parse `CRYO_AUDIT`; unset means the default.
    ///
    /// # Errors
    ///
    /// The parse failure reason for a set-but-malformed variable.
    pub fn from_env_checked() -> Result<Self, String> {
        match std::env::var("CRYO_AUDIT") {
            Ok(s) => Self::parse(&s),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Whether any auditing happens under this policy.
    #[must_use]
    pub fn is_on(self) -> bool {
        self != AuditPolicy::Off
    }
}

/// Relative tolerance for verdict-consistency checks.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-15 + REL_TOL * a.abs().max(b.abs())
}

/// The library audit configuration implied by a characterization grid:
/// every propagation-arc delay table must cover the full slew × load grid.
#[must_use]
pub fn lib_audit_config(char_cfg: &CharConfig) -> AuditConfig {
    AuditConfig {
        expected_grid: Some((char_cfg.slews.len(), char_cfg.loads_x1.len())),
        ..AuditConfig::default()
    }
}

/// Device-layer audit of the model cards, as pipeline findings
/// (stage `calibrate`). There is no repair path for a bad card — under
/// `Gate` these are terminal.
#[must_use]
pub fn audit_model_cards(stage: &str, nfet: &ModelCard, pfet: &ModelCard) -> AuditReport {
    let mut report = AuditReport::default();
    for f in cryo_device::audit_cards(nfet, pfet) {
        report.push(Finding {
            stage: stage.to_string(),
            entity: f.entity,
            invariant: f.invariant,
            observed: f.observed,
            bound: f.bound,
        });
    }
    report
}

/// Audit the activity artifact: every toggle rate and access rate must be
/// finite and non-negative, and the steady-state workload cost positive.
#[must_use]
pub fn audit_activity(stage: &str, a: &ActivityArtifact) -> AuditReport {
    let mut report = AuditReport::default();
    let mut check = |entity: String, invariant: &str, v: f64| {
        if !(v.is_finite() && v >= 0.0) {
            report.push(Finding::new(
                stage,
                entity,
                invariant,
                v,
                ">= 0 and finite".into(),
            ));
        }
    };
    check(
        "default_alpha".into(),
        "activity_rate_nonneg",
        a.default_alpha,
    );
    for (region, alpha) in &a.regions {
        check(format!("region/{region}"), "activity_rate_nonneg", *alpha);
    }
    for (name, rate) in &a.macro_accesses {
        check(format!("macro/{name}"), "activity_rate_nonneg", *rate);
    }
    if !(a.cycles_per_item.is_finite() && a.cycles_per_item > 0.0) {
        report.push(Finding::new(
            stage,
            "cycles_per_item".into(),
            "workload_cost_positive",
            a.cycles_per_item,
            "finite and > 0".into(),
        ));
    }
    report
}

/// Audit one corner of the power artifact by rebuilding the
/// [`PowerReport`] and running the power layer's own audit, plus the
/// artifact-level invariant that the recorded total is the component sum.
#[must_use]
pub fn audit_power_corner(stage: &str, c: &PowerCorner) -> AuditReport {
    let report = PowerReport {
        corner: c.corner.clone(),
        dynamic_w: c.dynamic_w,
        logic_leakage_w: c.logic_leakage_w,
        sram_leakage_w: c.sram_leakage_w,
        per_region_dynamic: c.per_region_dynamic.iter().cloned().collect(),
    };
    let mut audit = cryo_power::audit_power(stage, &report);
    if !close(c.total_w, report.total()) {
        audit.push(Finding::new(
            stage,
            c.corner.clone(),
            "power_total_sums",
            c.total_w,
            format!("= component sum {:e}", report.total()),
        ));
    }
    audit
}

/// Audit the final verdict: every derived number must be consistent with
/// the inputs recorded beside it.
#[must_use]
pub fn audit_classify(stage: &str, v: &ClassifyArtifact) -> AuditReport {
    let mut report = AuditReport::default();
    for (name, value) in [
        ("fmax_300_hz", v.fmax_300_hz),
        ("fmax_10_hz", v.fmax_10_hz),
        ("total_power_10k_w", v.total_power_10k_w),
        ("knn_classify_s", v.knn_classify_s),
    ] {
        if !(value.is_finite() && value > 0.0) {
            report.push(Finding::new(
                stage,
                name.to_string(),
                "verdict_value_positive",
                value,
                "finite and > 0".into(),
            ));
        }
    }
    if v.fmax_300_hz > 0.0 && !close(v.cryo_fmax_ratio, v.fmax_10_hz / v.fmax_300_hz) {
        report.push(Finding::new(
            stage,
            "cryo_fmax_ratio".into(),
            "verdict_ratio_consistent",
            v.cryo_fmax_ratio,
            format!("= fmax_10/fmax_300 {:e}", v.fmax_10_hz / v.fmax_300_hz),
        ));
    }
    if v.fits_cooling_budget != (v.total_power_10k_w < COOLING_BUDGET_10K) {
        report.push(Finding::new(
            stage,
            "fits_cooling_budget".into(),
            "verdict_flag_consistent",
            f64::from(u8::from(v.fits_cooling_budget)),
            format!("= (power < {COOLING_BUDGET_10K:e} W)"),
        ));
    }
    if v.within_decoherence != (v.knn_classify_s < DECOHERENCE_TIME) {
        report.push(Finding::new(
            stage,
            "within_decoherence".into(),
            "verdict_flag_consistent",
            f64::from(u8::from(v.within_decoherence)),
            format!("= (latency < {DECOHERENCE_TIME:e} s)"),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_defaults_to_warn() {
        assert_eq!(AuditPolicy::parse("gate").unwrap(), AuditPolicy::Gate);
        assert_eq!(AuditPolicy::parse("OFF").unwrap(), AuditPolicy::Off);
        assert!(AuditPolicy::parse("loud").is_err());
        assert_eq!(AuditPolicy::default(), AuditPolicy::Warn);
        assert!(AuditPolicy::Gate.is_on());
        assert!(!AuditPolicy::Off.is_on());
    }

    #[test]
    fn nominal_cards_audit_clean() {
        use cryo_device::Polarity;
        let a = audit_model_cards(
            "calibrate",
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
        );
        assert!(a.is_clean(), "{:?}", a.findings);
    }

    #[test]
    fn poisoned_vth_is_a_calibrate_finding() {
        use cryo_device::Polarity;
        let mut nfet = ModelCard::nominal(Polarity::N);
        nfet.tvth = -nfet.tvth;
        let a = audit_model_cards("calibrate", &nfet, &ModelCard::nominal(Polarity::P));
        assert!(!a.is_clean());
        assert!(a.findings.iter().all(|f| f.stage == "calibrate"));
        assert!(a
            .findings
            .iter()
            .any(|f| f.invariant == "param_in_calibrated_bounds" && f.entity.contains("tvth")));
    }

    #[test]
    fn activity_audit_flags_negative_rates() {
        let art = ActivityArtifact {
            default_alpha: 0.02,
            regions: vec![("alu".into(), -0.3)],
            macro_accesses: vec![("l1d".into(), 0.5)],
            cycles_per_item: 41.5,
        };
        let a = audit_activity("activity", &art);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].entity, "region/alu");
    }

    #[test]
    fn classify_audit_checks_flag_consistency() {
        let v = ClassifyArtifact {
            fmax_300_hz: 9.6e8,
            fmax_10_hz: 9.2e8,
            cryo_fmax_ratio: 9.2e8 / 9.6e8,
            total_power_10k_w: 0.057,
            fits_cooling_budget: false, // 0.057 < 0.100, so this lies
            knn_classify_s: 8.3e-7,
            within_decoherence: true,
            degraded_arcs_300: 0,
            degraded_arcs_10: 0,
        };
        let a = audit_classify("classify", &v);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].entity, "fits_cooling_budget");
    }
}
