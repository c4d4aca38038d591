//! Simulation-sanity audits: finite waveforms and bounded DC solutions.
//!
//! The simulator layer of the signoff firewall. The Newton loop already
//! *fails loudly* on divergence; these checks guard the opposite hazard —
//! a solve that "succeeded" but whose artifacts carry NaN/∞ samples or
//! physically impossible node voltages (the signature of a poisoned
//! device evaluation that cancelled itself out of the residual). They are
//! cheap linear scans, run by the characterization layer on every
//! waveform it measures from.
//!
//! This crate sits below `cryo-liberty`, so findings use a local mirror
//! type; callers convert into the stack-wide audit report.

use serde::{Deserialize, Serialize};

use crate::dc::DcSolution;
use crate::wave::Waveform;

/// One simulation-invariant violation (stage attribution happens upstream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimFinding {
    /// Offending entity (caller-supplied label, e.g. `INVx1/tran(A->Y)`).
    pub entity: String,
    /// Invariant that failed.
    pub invariant: String,
    /// Observed value, rendered as text so NaN/∞ survive JSON.
    pub observed: String,
    /// The bound the observation violated.
    pub bound: String,
}

impl SimFinding {
    fn new(entity: &str, invariant: &str, observed: f64, bound: String) -> Self {
        Self {
            entity: entity.to_string(),
            invariant: invariant.to_string(),
            observed: format!("{observed:e}"),
            bound,
        }
    }
}

/// Audit a transient waveform: every sample finite, the time axis
/// non-decreasing, and voltages inside `±v_bound` (supply rails plus
/// overshoot headroom).
#[must_use]
pub fn audit_waveform(entity: &str, w: &Waveform, v_bound: f64) -> Vec<SimFinding> {
    let mut out = Vec::new();
    for (i, &t) in w.times().iter().enumerate() {
        if !t.is_finite() {
            out.push(SimFinding::new(entity, "time_finite", t, "finite".into()));
        } else if i > 0 && w.times()[i - 1].is_finite() && t < w.times()[i - 1] {
            out.push(SimFinding::new(
                entity,
                "time_monotone",
                t,
                format!(">= {:e}", w.times()[i - 1]),
            ));
        }
    }
    for &v in w.values() {
        if !v.is_finite() {
            out.push(SimFinding::new(
                entity,
                "waveform_finite",
                v,
                "finite".into(),
            ));
            break; // one poisoned sample condemns the waveform; don't spam
        }
        if v.abs() > v_bound {
            out.push(SimFinding::new(
                entity,
                "waveform_bounded",
                v,
                format!("|v| <= {v_bound:e}"),
            ));
            break;
        }
    }
    out
}

/// Audit a converged DC solution: every unknown (node voltages and branch
/// currents) finite, and the first `n_nodes` voltages inside `±v_bound`.
#[must_use]
pub fn audit_dc(entity: &str, sol: &DcSolution, n_nodes: usize, v_bound: f64) -> Vec<SimFinding> {
    let mut out = Vec::new();
    for &x in sol.raw() {
        if !x.is_finite() {
            out.push(SimFinding::new(entity, "dc_finite", x, "finite".into()));
            return out;
        }
    }
    for &v in sol.raw().iter().take(n_nodes) {
        if v.abs() > v_bound {
            out.push(SimFinding::new(
                entity,
                "dc_bounded",
                v,
                format!("|v| <= {v_bound:e}"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, GROUND};
    use crate::dc::dc_operating_point;
    use crate::source::Source;

    #[test]
    fn clean_waveform_and_dc_pass() {
        let w = Waveform::new(vec![0.0, 1e-12, 2e-12], vec![0.0, 0.35, 0.7]);
        assert!(audit_waveform("w", &w, 1.5).is_empty());

        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, GROUND, Source::dc(0.7));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, GROUND, 1e3);
        let sol = dc_operating_point(&ckt).unwrap();
        assert!(audit_dc("dc", &sol, 2, 1.5).is_empty());
    }

    #[test]
    fn nan_sample_is_flagged_once() {
        let w = Waveform::new(vec![0.0, 1e-12, 2e-12], vec![0.0, f64::NAN, f64::NAN]);
        let f = audit_waveform("INV/tran", &w, 1.5);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].invariant, "waveform_finite");
        assert_eq!(f[0].entity, "INV/tran");
    }

    #[test]
    fn rail_escape_is_flagged() {
        let w = Waveform::new(vec![0.0, 1e-12], vec![0.0, 40.0]);
        let f = audit_waveform("w", &w, 1.5);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].invariant, "waveform_bounded");
    }

    #[test]
    fn backwards_time_axis_is_flagged() {
        let w = Waveform::new(vec![0.0, 2e-12, 1e-12], vec![0.0, 0.1, 0.2]);
        let f = audit_waveform("w", &w, 1.5);
        assert!(f.iter().any(|x| x.invariant == "time_monotone"));
    }
}
