//! The signoff audit firewall, end to end: every `corrupt=` fault family
//! is caught at the earliest stage whose invariants can see it, gated runs
//! quarantine and re-characterize only the offending cells (counter-proven
//! zero re-simulation of clean cells), and a clean run's artifacts are
//! byte-identical with the firewall on or off.

use std::path::PathBuf;

use cryo_soc::cells::CheckpointStore;
use cryo_soc::core::supervise::{Stage, Supervisor, SupervisorConfig};
use cryo_soc::core::{AuditPolicy, CoreError, CryoFlow, FlowConfig};
use cryo_soc::spice::{work, FaultPlan};

/// A unique scratch cache directory, wiped before use.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryo_audit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn flow_at(dir: &PathBuf, plan: Option<FaultPlan>, policy: AuditPolicy, jobs: usize) -> CryoFlow {
    let mut cfg = FlowConfig::fast(dir);
    cfg.fault_plan = plan;
    cfg.audit_policy = policy;
    cfg.jobs = jobs;
    CryoFlow::new(cfg)
}

fn supervisor(flow: CryoFlow) -> Supervisor {
    Supervisor::new(flow, SupervisorConfig::default())
}

#[test]
fn clean_run_is_byte_identical_with_the_firewall_on_or_off() {
    // The acceptance bar for "auditing never changes clean artifacts":
    // every stage checkpoint of a clean fast-config pipeline is the same
    // byte string whether the firewall is off or gating.
    let mut blobs = Vec::new();
    for (tag, policy) in [("off", AuditPolicy::Off), ("gate", AuditPolicy::Gate)] {
        let dir = scratch(tag);
        let sup = supervisor(flow_at(&dir, None, policy, 1));
        let rep = sup.run().expect("clean supervised run");
        assert!(rep.completed);
        assert!(
            rep.audit.is_clean(),
            "clean run must carry an empty audit: {:?}",
            rep.audit
        );
        // The audit key is omitted entirely from a clean report.
        let json = serde_json::to_string(&rep).expect("report serializes");
        assert!(
            !json.contains("\"audit\""),
            "clean pipeline report must serialize without an audit key"
        );
        let key = sup.pipeline_key().unwrap();
        let store = CheckpointStore::open(&dir, "pipeline", &key).unwrap();
        let chain: Vec<String> = Stage::ALL
            .iter()
            .map(|s| {
                store
                    .load_blob(s.name())
                    .unwrap_or_else(|| panic!("{} blob", s.name()))
            })
            .collect();
        blobs.push(chain);
    }
    assert_eq!(
        blobs[0], blobs[1],
        "audit firewall changed a clean artifact"
    );
}

#[test]
fn corrupt_table_is_flagged_at_charlib300_with_exact_attribution() {
    // A sign-flipped NLDM entry is visible to the very first audit that
    // sees the library — charlib300 — and the finding names the exact
    // cell, arc, table, and grid coordinate.
    let dir = scratch("table_warn");
    let plan = FaultPlan {
        corrupt_table: 0.4,
        ..FaultPlan::new(11)
    };
    let sup = supervisor(flow_at(&dir, Some(plan), AuditPolicy::Warn, 1));
    let rep = sup.run().expect("warn-mode run completes despite findings");
    assert!(rep.completed);
    let findings = &rep.audit.findings;
    assert!(!findings.is_empty(), "corruption must be detected");
    assert!(
        findings.iter().all(|f| f.stage != "calibrate"),
        "table corruption is invisible to the device audit"
    );
    let first = findings
        .iter()
        .find(|f| f.stage == "charlib300" && f.invariant == "delay_positive")
        .expect("earliest catch is the 300 K library audit");
    // Entity path: <cell>/<related>-><pin>/<table>[row,col].
    assert!(
        first.entity.contains("->") && first.entity.contains('[') && first.entity.contains(','),
        "finding must name cell, arc, table, and grid coordinate: {}",
        first.entity
    );
    assert!(
        first.observed.starts_with('-'),
        "observed value is the flipped (negative) delay"
    );
}

#[test]
fn corrupt_delay_passes_per_library_audits_and_is_caught_cross_corner() {
    // A uniform 2.5x scaling of a cold cell's delay tables preserves every
    // per-library invariant (finite, positive, monotone, full grid); only
    // the cross-corner band can see it, so the earliest catch is the
    // charlib10 boundary — and nothing before it.
    let dir = scratch("delay_warn");
    let plan = FaultPlan {
        corrupt_delay: 0.35,
        ..FaultPlan::new(13)
    };
    let sup = supervisor(flow_at(&dir, Some(plan), AuditPolicy::Warn, 1));
    let rep = sup.run().expect("warn-mode run completes despite findings");
    let findings = &rep.audit.findings;
    assert!(!findings.is_empty(), "corruption must be detected");
    assert!(
        findings
            .iter()
            .all(|f| f.stage != "calibrate" && f.stage != "charlib300"),
        "scaled delays must be invisible before the cross-corner audit: {findings:?}"
    );
    let cross = findings
        .iter()
        .find(|f| f.stage == "charlib10" && f.invariant == "cross_corner_band")
        .expect("earliest catch is the cross-corner audit");
    assert!(
        !cross.entity.contains('/'),
        "cross-corner findings attribute whole cells: {}",
        cross.entity
    );
}

#[test]
fn corrupt_vth_is_terminal_at_calibrate_before_any_spice_is_spent() {
    // A sign-flipped cryogenic Vth coefficient claims the threshold drops
    // when cooled — physically backwards. The device audit at the
    // calibrate boundary catches it before a single SPICE solve, and a
    // poisoned model card has no repair path: under Gate this is terminal.
    let dir = scratch("vth_gate");
    let plan = FaultPlan {
        corrupt_vth: 1.0,
        ..FaultPlan::new(17)
    };
    let sup = supervisor(flow_at(&dir, Some(plan), AuditPolicy::Gate, 1));
    let _ = work::take();
    match sup.run() {
        Err(CoreError::AuditFailed { stage, report }) => {
            assert_eq!(stage, "calibrate");
            assert!(report
                .findings
                .iter()
                .any(|f| f.invariant == "param_in_calibrated_bounds" && f.entity.contains("tvth")));
        }
        other => panic!("expected AuditFailed at calibrate, got {other:?}"),
    }
    let sims = work::take();
    assert_eq!(
        (sims.dc, sims.tran),
        (0, 0),
        "the gate must fire before characterization spends any SPICE"
    );
}

#[test]
fn gated_table_corruption_repairs_only_the_offending_cells() {
    // The quarantine round trip, counter-proven: a gated run with a seeded
    // table corruption costs exactly (clean characterization) + (repair of
    // the offender set) transient solves — i.e. zero re-simulation of any
    // clean cell — and the repaired library is byte-identical to one that
    // was never corrupted.
    let plan = FaultPlan {
        corrupt_table: 0.4,
        ..FaultPlan::new(11)
    };

    // Clean baseline (no faults): total solve cost + the golden library.
    let dir_clean = scratch("repair_clean");
    let clean_flow = flow_at(&dir_clean, None, AuditPolicy::Gate, 1);
    let _ = work::take();
    let (lib_clean, rep_clean) = clean_flow.library_with_report(300.0).expect("clean corner");
    let clean_sims = work::take();
    assert!(rep_clean.audit.is_clean());

    // Corrupted, gated: the flow repairs in place and reports who it fixed.
    let dir_gate = scratch("repair_gate");
    let gated_flow = flow_at(&dir_gate, Some(plan.clone()), AuditPolicy::Gate, 1);
    let _ = work::take();
    let (lib_repaired, rep_repaired) = gated_flow
        .library_with_report(300.0)
        .expect("gated corner repairs");
    let gated_sims = work::take();
    let offenders = rep_repaired.audit.repaired.clone();
    assert!(
        !offenders.is_empty() && offenders.len() < lib_clean.cells().len(),
        "the seeded plan must corrupt a strict subset of cells (got {})",
        offenders.len()
    );
    assert!(
        rep_repaired.audit.findings.is_empty(),
        "repair must clear all findings"
    );

    // Measure the repair pass alone: re-characterize exactly the offender
    // set on top of a fully clean library.
    let dir_repair = scratch("repair_only");
    let repair_flow = flow_at(&dir_repair, None, AuditPolicy::Gate, 1);
    let _ = work::take();
    let (_, rep_only) = repair_flow
        .repair_library(300.0, &lib_clean, &offenders)
        .expect("repair pass");
    let repair_sims = work::take();
    assert_eq!(
        rep_only.outcomes.len() - offenders.len(),
        rep_only.resumed_count(),
        "every non-offender must resume from its checkpoint"
    );

    assert_eq!(
        gated_sims.tran,
        clean_sims.tran + repair_sims.tran,
        "gated run must cost exactly clean + offender repair (zero clean-cell re-simulation)"
    );
    assert_eq!(
        serde_json::to_string(&lib_repaired).unwrap(),
        serde_json::to_string(&lib_clean).unwrap(),
        "repaired library must be byte-identical to the never-corrupted one"
    );

    // Determinism across worker counts: the same corruption + repair at
    // jobs = 8 lands on the identical library.
    let dir_par = scratch("repair_jobs8");
    let par_flow = flow_at(&dir_par, Some(plan), AuditPolicy::Gate, 8);
    let (lib_par, rep_par) = par_flow
        .library_with_report(300.0)
        .expect("parallel gated corner");
    assert_eq!(
        rep_par.audit.repaired, offenders,
        "same offender set at jobs=8"
    );
    assert_eq!(
        serde_json::to_string(&lib_par).unwrap(),
        serde_json::to_string(&lib_clean).unwrap(),
        "jobs=1 vs jobs=8 repaired libraries diverged"
    );
}

#[test]
fn gated_cross_corner_corruption_round_trips_through_the_supervisor() {
    // The supervisor-level repair: corrupt=delay survives both per-library
    // audits, the charlib10 cross-corner audit quarantines the scaled
    // cells, targeted re-characterization fixes them, and the pipeline
    // completes with a sane verdict and a repair trail.
    let dir = scratch("delay_gate");
    let plan = FaultPlan {
        corrupt_delay: 0.35,
        ..FaultPlan::new(13)
    };
    let sup = supervisor(flow_at(&dir, Some(plan), AuditPolicy::Gate, 1));
    let rep = sup.run().expect("gated run repairs and completes");
    assert!(rep.completed);
    assert!(
        !rep.audit.repaired.is_empty(),
        "the cross-corner repair must be recorded"
    );
    assert!(
        rep.audit.findings.is_empty(),
        "no findings survive the repair"
    );
    let verdict = rep.verdict.expect("verdict");
    assert!(
        verdict.cryo_fmax_ratio > 0.8 && verdict.cryo_fmax_ratio < 1.0,
        "repaired cold corner must restore the physical fmax ratio (got {})",
        verdict.cryo_fmax_ratio
    );
}

#[test]
fn sticky_corruption_survives_repair_and_fails_structurally() {
    // corrupt=sticky models corruption the quarantine cannot clean (e.g. a
    // persistently bad extraction): the generation-1 repair re-fires the
    // fault, the re-audit still finds it, and the run dies with the full
    // finding list instead of looping or signing off on garbage.
    let dir = scratch("sticky");
    let plan = FaultPlan {
        corrupt_table: 0.4,
        corrupt_sticky: true,
        ..FaultPlan::new(11)
    };
    let sup = supervisor(flow_at(&dir, Some(plan), AuditPolicy::Gate, 1));
    match sup.run() {
        Err(CoreError::AuditFailed { stage, report }) => {
            assert_eq!(stage, "charlib300");
            assert!(report
                .findings
                .iter()
                .any(|f| f.invariant == "delay_positive"));
            // The sign flip also breaks load-monotonicity at the same
            // entry; every finding stays at the corrupted stage.
            assert!(report.findings.iter().all(|f| f.stage == "charlib300"));
        }
        other => panic!("expected AuditFailed at charlib300, got {other:?}"),
    }
}
