//! Physical-invariant audits over timing reports.
//!
//! The signoff firewall's STA layer: a [`TimingReport`] is internally
//! consistent when every arc delay on the critical path is non-negative
//! and finite, every arrival advances from the startpoint's launch
//! arrival by exactly each step's increment, the worst
//! endpoint agrees with the headline critical-path delay, the slack
//! histogram accounts for every endpoint, and degraded stand-in delays
//! are pessimistic (non-negative and finite; the timing engine already
//! excludes them structurally from min-path/hold analysis by giving them
//! zero min-path contribution). A report violating any of these carries
//! silently corrupted timing — exactly what must not reach signoff.

use cryo_liberty::{AuditReport, Finding};

use crate::report::TimingReport;

/// Relative tolerance for sum-consistency checks (floating-point
/// accumulation over a few hundred path steps).
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-15 + REL_TOL * a.abs().max(b.abs())
}

/// Audit one corner's timing report. `stage` names the pipeline stage for
/// attribution (`sta300`, `sta10`). Findings name the library cell first
/// (`<cell>/<instance>`) so the firewall's quarantine targets the cell
/// whose tables produced the bad number.
#[must_use]
pub fn audit_timing(stage: &str, r: &TimingReport) -> AuditReport {
    let mut report = AuditReport::default();
    if !(r.critical_path_delay.is_finite() && r.critical_path_delay > 0.0) {
        report.push(Finding::new(
            stage,
            r.corner.clone(),
            "path_delay_positive",
            r.critical_path_delay,
            "finite and > 0".into(),
        ));
    }
    let mut running = 0.0_f64;
    for (i, step) in r.critical_path.iter().enumerate() {
        let entity = format!("{}/{}[{i}]", step.cell, step.instance);
        if !(step.incr.is_finite() && step.incr >= 0.0) {
            report.push(Finding::new(
                stage,
                entity.clone(),
                "arc_delay_nonneg",
                step.incr,
                ">= 0 and finite".into(),
            ));
        }
        // The running sum of increments is the ground truth the arrivals
        // are checked against; a non-finite increment poisons it, so stop
        // the arrival checks there rather than cascading NaN findings.
        if !step.incr.is_finite() {
            break;
        }
        if i == 0 {
            // The startpoint's arrival anchors the path: it carries launch
            // overhead (clock-to-Q, input delay) the step list does not
            // itemize, so it is taken as ground truth — but it must at
            // least cover its own increment.
            if !(step.arrival.is_finite() && step.arrival >= step.incr * (1.0 - REL_TOL)) {
                report.push(Finding::new(
                    stage,
                    entity,
                    "path_arrival_consistent",
                    step.arrival,
                    format!(">= own increment {:e}, finite", step.incr),
                ));
                break;
            }
            running = step.arrival;
            continue;
        }
        running += step.incr;
        if !close(step.arrival, running) {
            report.push(Finding::new(
                stage,
                entity,
                "path_arrival_consistent",
                step.arrival,
                format!("= launch arrival + increments {running:e}"),
            ));
        }
    }
    if let Some(last) = r.critical_path.last() {
        // Path delay includes the endpoint's setup margin, so it bounds
        // the last arrival from above.
        if last.arrival.is_finite()
            && r.critical_path_delay.is_finite()
            && last.arrival > r.critical_path_delay * (1.0 + REL_TOL)
        {
            report.push(Finding::new(
                stage,
                r.endpoint.clone(),
                "path_delay_covers_arrival",
                last.arrival,
                format!("<= critical path delay {:e}", r.critical_path_delay),
            ));
        }
    }
    if let Some(worst) = r.worst_paths.first() {
        if !close(worst.path_delay, r.critical_path_delay) {
            report.push(Finding::new(
                stage,
                worst.endpoint.clone(),
                "worst_path_consistent",
                worst.path_delay,
                format!("= critical path delay {:e}", r.critical_path_delay),
            ));
        }
        if !close(r.worst_slack, worst.slack) {
            report.push(Finding::new(
                stage,
                worst.endpoint.clone(),
                "slack_consistent",
                r.worst_slack,
                format!("= worst endpoint slack {:e}", worst.slack),
            ));
        }
    }
    if !r.slack_histogram.is_empty() {
        let binned: usize = r.slack_histogram.iter().sum();
        if binned != r.endpoint_count {
            report.push(Finding::new(
                stage,
                r.corner.clone(),
                "histogram_complete",
                binned as f64,
                format!("= endpoint count {}", r.endpoint_count),
            ));
        }
    }
    if !r.worst_hold_slack.is_finite() {
        report.push(Finding::new(
            stage,
            r.corner.clone(),
            "hold_slack_finite",
            r.worst_hold_slack,
            "finite".into(),
        ));
    }
    for d in &r.degraded_arcs {
        if !(d.assumed_delay.is_finite() && d.assumed_delay >= 0.0) {
            report.push(Finding::new(
                stage,
                format!("{}/{}/{}", d.cell, d.instance, d.pin),
                "degraded_delay_pessimistic",
                d.assumed_delay,
                ">= 0 and finite".into(),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{EndpointSummary, PathStep};

    fn step(instance: &str, cell: &str, incr: f64, arrival: f64) -> PathStep {
        PathStep {
            instance: instance.into(),
            cell: cell.into(),
            net: format!("n_{instance}"),
            incr,
            arrival,
        }
    }

    fn clean_report() -> TimingReport {
        TimingReport {
            corner: "c300".into(),
            temperature: 300.0,
            critical_path_delay: 40e-12,
            worst_paths: vec![EndpointSummary {
                endpoint: "ff1/D".into(),
                path_delay: 40e-12,
                slack: -40e-12,
                depth: 2,
            }],
            slack_histogram: vec![1, 0, 1],
            worst_slack: -40e-12,
            worst_hold_slack: 5e-12,
            critical_path: vec![
                step("in", "input", 0.0, 0.0),
                step("u1", "INVx1", 12e-12, 12e-12),
                step("u2", "NAND2x1", 18e-12, 30e-12),
            ],
            endpoint: "ff1/D".into(),
            endpoint_count: 2,
            degraded_arcs: vec![],
            audit: Default::default(),
            statistical: None,
        }
    }

    #[test]
    fn clean_report_audits_clean() {
        assert!(audit_timing("sta300", &clean_report()).is_clean());
    }

    #[test]
    fn negative_arc_delay_names_the_cell_and_step() {
        let mut r = clean_report();
        r.critical_path[2].incr = -18e-12;
        r.critical_path[2].arrival = -6e-12;
        // Keep the summary lines consistent so only the arc fires.
        let a = audit_timing("sta300", &r);
        let f = a
            .findings
            .iter()
            .find(|f| f.invariant == "arc_delay_nonneg")
            .expect("negative incr flagged");
        assert_eq!(f.entity, "NAND2x1/u2[2]");
        assert_eq!(f.cell(), "NAND2x1", "quarantine targets the library cell");
    }

    #[test]
    fn nonzero_launch_arrival_is_not_a_finding() {
        // Real paths launch with clock-to-Q / input-delay overhead the
        // step list does not itemize; the startpoint arrival anchors the
        // consistency check instead of being measured against zero.
        let mut r = clean_report();
        let launch = 300e-12;
        for s in &mut r.critical_path {
            s.arrival += launch;
        }
        r.critical_path_delay += launch;
        r.worst_paths[0].path_delay += launch;
        assert!(audit_timing("sta300", &r).is_clean());
    }

    #[test]
    fn arrival_mismatch_is_flagged_once() {
        let mut r = clean_report();
        r.critical_path[1].arrival = 99e-12; // breaks sum at step 1 only
        let a = audit_timing("sta300", &r);
        let hits: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.invariant == "path_arrival_consistent")
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "no cascade past the bad step: {:?}",
            a.findings
        );
        assert_eq!(hits[0].entity, "INVx1/u1[1]");
    }

    #[test]
    fn summary_inconsistencies_are_flagged() {
        let mut r = clean_report();
        r.worst_paths[0].path_delay = 50e-12;
        r.slack_histogram = vec![1];
        r.worst_hold_slack = f64::NAN;
        let a = audit_timing("sta10", &r);
        let inv: Vec<&str> = a.findings.iter().map(|f| f.invariant.as_str()).collect();
        assert!(inv.contains(&"worst_path_consistent"));
        assert!(inv.contains(&"histogram_complete"));
        assert!(inv.contains(&"hold_slack_finite"));
    }
}
