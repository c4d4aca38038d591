//! The PVT corner farm, end to end: a three-corner sweep with one corner
//! poisoned by scoped fault injection completes **degraded** — the sick
//! corner quarantined as `Failed`, the rest signed (SPICE anchor +
//! surrogate-predicted cold corner) — then a mid-farm kill resumes with
//! zero re-simulation and reproduces the report byte for byte, with the
//! ledger's simulator counters as proof. Signoff floors and derating are
//! exercised on the same checkpointed farm.

use std::path::PathBuf;
use std::time::Duration;

use cryo_soc::cells::CheckpointStore;
use cryo_soc::core::corners::{CornerFarm, CornerProvenance, CornerSpec, FarmConfig};
use cryo_soc::core::{AuditPolicy, CoreError, CryoFlow, FlowConfig, SurrogatePolicy};
use cryo_soc::spice::{work, FaultPlan, Work};

/// Surrogate residual bound: above the clean model's worst residual, far
/// below a corruption signature (same constant as the surrogate suite).
const BOUND: f64 = 0.75;

/// The corner this farm's fault plan poisons: the injection scope
/// `corner:<name>` targets exactly the card-derivation site of one corner.
const SICK: &str = "tt_0p70v_77k";

fn farm_at(dir: &PathBuf, jobs: usize, min_signed: f64, halt_after: Option<usize>) -> CornerFarm {
    let mut cfg = FlowConfig::fast(dir);
    cfg.jobs = jobs;
    cfg.audit_policy = AuditPolicy::Gate;
    cfg.surrogate_policy = SurrogatePolicy::PredictWithFallback { max_rel_err: BOUND };
    cfg.fault_plan = FaultPlan::parse_spec(&format!("seed=11,corrupt=vth:1.0,scope=corner:{SICK}"))
        .expect("valid plan");
    let mut fcfg = FarmConfig::new(CornerSpec::parse("T=300,77,10").expect("spec"));
    fcfg.min_signed_frac = min_signed;
    fcfg.halt_after = halt_after;
    fcfg.max_attempts = 2;
    CornerFarm::new(CryoFlow::new(cfg), fcfg)
}

#[test]
fn poisoned_farm_degrades_signs_and_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("cryo_corner_farm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ------------------------------------------------------------------
    // Leg 1 — cold start at jobs = 1, killed after one corner: only the
    // 300 K anchor runs (SPICE, signed), and the farm reports itself
    // incomplete — an unfinished farm must never claim signoff.
    // ------------------------------------------------------------------
    let farm = farm_at(&dir, 1, 0.5, Some(1));
    let _ = work::take();
    let run1 = farm.run().expect("halted farm still returns a run");
    assert!(!run1.report.completed);
    assert!(!run1.report.signoff, "incomplete farms must not sign off");
    assert_eq!(run1.report.corners.len(), 1);
    let anchor = &run1.report.corners[0];
    assert_eq!(anchor.name, "tt_0p70v_300k", "warmest corner runs first");
    assert_eq!(anchor.provenance, CornerProvenance::Spice);
    assert!(anchor.signed && anchor.fmax_hz.unwrap() > 0.0);
    assert!(!run1.ledger[0].from_checkpoint);
    assert!(
        run1.ledger[0].tran_solves > 0,
        "the anchor must be real SPICE: {:?}",
        run1.ledger[0]
    );

    // ------------------------------------------------------------------
    // Leg 2 — full farm at jobs = 8 over the same cache: the anchor
    // resumes from its checkpoint (zero simulation — the kill/resume and
    // jobs-invariance proof in one), the poisoned 77 K corner quarantines
    // as Failed at the audit gate before spending any SPICE on it, the
    // 10 K corner signs as surrogate-predicted, and the verdict is
    // degraded-but-signed.
    // ------------------------------------------------------------------
    let farm = farm_at(&dir, 8, 0.5, None);
    let run2 = farm.run().expect("poisoned farm must complete degraded");
    assert!(run2.report.completed);
    assert_eq!(run2.report.corners.len(), 3);
    let r0 = &run2.ledger[0];
    assert!(
        r0.from_checkpoint && r0.dc_solves + r0.tran_solves + r0.arc_evals == 0,
        "the anchor must resume with zero work: {r0:?}"
    );
    assert_eq!(
        &run2.report.corners[0], anchor,
        "resumed outcome is identical"
    );

    let sick = &run2.report.corners[1];
    assert_eq!(sick.name, SICK);
    assert!(!sick.signed && sick.fmax_hz.is_none());
    match &sick.provenance {
        CornerProvenance::Failed { cause } => assert!(
            cause.contains("audit firewall"),
            "the poisoned corner must fail at the audit gate, not downstream: {cause}"
        ),
        other => panic!("poisoned corner must quarantine as Failed, got {other:?}"),
    }
    assert_eq!(
        run2.ledger[1].tran_solves, 0,
        "quarantine must happen before any SPICE is spent on the sick corner"
    );

    let cold = &run2.report.corners[2];
    assert_eq!(cold.name, "tt_0p70v_10k");
    assert!(cold.signed);
    assert!(
        matches!(&cold.provenance, CornerProvenance::Predicted { model_hash } if !model_hash.is_empty()),
        "the cold corner must be surrogate-predicted from the anchor: {:?}",
        cold.provenance
    );

    assert_eq!((run2.report.signed, run2.report.failed), (2, 1));
    assert!(
        run2.report.signoff,
        "2/3 signed clears the 0.5 floor: degraded, not dead"
    );
    assert!(run2.signoff_error().is_none());
    let report_json = serde_json::to_string(&run2.report).expect("report serializes");

    // The farm manifest names what this namespace was building.
    let store = CheckpointStore::open(&dir, "farm", &farm.farm_key().expect("key")).expect("store");
    let manifest = store.load_blob("manifest").expect("manifest blob");
    assert!(manifest.contains("tt_0p70v_77k") && manifest.contains("T=300,77,10"));

    // ------------------------------------------------------------------
    // Leg 3 — full rerun at jobs = 1: every corner (including the
    // quarantined one) replays from its checkpoint blob with zero
    // simulation, and the report is byte-identical to leg 2's.
    // ------------------------------------------------------------------
    let farm = farm_at(&dir, 1, 0.5, None);
    let _ = work::take();
    let run3 = farm.run().expect("resumed farm");
    assert!(
        run3.ledger
            .iter()
            .all(|r| r.from_checkpoint && r.dc_solves + r.tran_solves + r.arc_evals == 0),
        "a finished farm must replay entirely from checkpoints: {:?}",
        run3.ledger
    );
    let resumed = work::take();
    assert_eq!(
        (resumed.dc, resumed.tran),
        (0, 0),
        "global counters agree: the resume runs zero SPICE"
    );
    assert_eq!(resumed, Work::default(), "the whole ledger is zero");
    assert_eq!(
        serde_json::to_string(&run3.report).unwrap(),
        report_json,
        "kill/resume must reproduce the farm report byte for byte"
    );

    // ------------------------------------------------------------------
    // Signoff floor: the same checkpointed farm under a 0.9 floor fails
    // structurally, naming exactly the quarantined corner. The floor is
    // deliberately outside the farm key, so this is a pure replay.
    // ------------------------------------------------------------------
    let strict = farm_at(&dir, 1, 0.9, None);
    assert_eq!(
        strict.farm_key().expect("key"),
        farm.farm_key().expect("key"),
        "the signoff floor must not move the checkpoint namespace"
    );
    let strict_run = strict.run().expect("strict farm still completes");
    assert!(!strict_run.report.signoff);
    match strict_run.signoff_error() {
        Some(CoreError::FarmCoverage {
            signed,
            total,
            failed,
            ..
        }) => {
            assert_eq!((signed, total), (2, 3));
            assert_eq!(failed, vec![SICK.to_string()]);
        }
        other => panic!("expected FarmCoverage, got {other:?}"),
    }

    // ------------------------------------------------------------------
    // Derating: with a pessimism margin, the quarantined corner borrows
    // its nearest signed neighbor's numbers and the strict floor clears —
    // degraded provenance stays visible in the report.
    // ------------------------------------------------------------------
    let mut derated = farm_at(&dir, 1, 0.9, None);
    {
        // Rebuild with a derate margin (same farm key: margin is a
        // report-level policy, not a characterization input).
        let mut fcfg = derated.config().clone();
        fcfg.derate_margin = Some(0.20);
        derated = CornerFarm::new(derated.flow().clone(), fcfg);
    }
    let derated_run = derated.run().expect("derated farm");
    let sick = derated_run
        .report
        .corners
        .iter()
        .find(|o| o.name == SICK)
        .expect("sick corner present");
    match &sick.provenance {
        CornerProvenance::Derated { from, margin } => {
            assert_eq!(from, "tt_0p70v_300k", "nearest signed neighbor donates");
            assert!((margin - 0.20).abs() < 1e-12);
        }
        other => panic!("expected Derated, got {other:?}"),
    }
    assert!(sick.signed);
    let donor = &derated_run.report.corners[0];
    assert!(
        (sick.fmax_hz.unwrap() - donor.fmax_hz.unwrap() * 0.8).abs()
            <= 1e-9 * donor.fmax_hz.unwrap(),
        "derated fmax must be the donor's with the margin applied"
    );
    assert_eq!(derated_run.report.failed, 0);
    assert!(
        derated_run.report.signoff && derated_run.signoff_error().is_none(),
        "derating lifts the degraded farm over the strict floor"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spent_budget_quarantines_the_corner_and_replays_from_its_blob() {
    // One corner, so at most one worker is leaked: the watchdog gives up
    // on it at once, and it runs on, detached, until the binary exits.
    let dir = std::env::temp_dir().join(format!("cryo_corner_farm_timeout_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FlowConfig::fast(&dir);
    cfg.jobs = 1;
    cfg.fault_plan = None;
    let flow = CryoFlow::new(cfg);
    let spec = CornerSpec::parse("T=300").expect("spec");
    let mut fcfg = FarmConfig::new(spec.clone());
    fcfg.corner_budget = Duration::ZERO;
    let run = CornerFarm::new(flow.clone(), fcfg)
        .run()
        .expect("a timed-out corner degrades the farm, not the run");
    assert_eq!(run.report.corners.len(), 1);
    let corner = &run.report.corners[0];
    assert_eq!(corner.name, "tt_0p70v_300k");
    assert!(!corner.signed && corner.fmax_hz.is_none());
    assert_eq!(
        corner.provenance,
        CornerProvenance::Failed {
            cause: "stage corner:tt_0p70v_300k exceeded its 0.000 s budget".into()
        }
    );
    let r = &run.ledger[0];
    assert_eq!((r.from_checkpoint, r.attempts), (false, 1), "{r:?}");
    assert!(!run.report.signoff);

    // With default budgets the quarantined outcome replays from its blob:
    // the corner is not retried and no work is spent.
    let _ = work::take();
    let rerun = CornerFarm::new(flow, FarmConfig::new(spec))
        .run()
        .expect("resumed farm");
    assert_eq!(rerun.report.corners, run.report.corners);
    let r = &rerun.ledger[0];
    assert!(
        r.from_checkpoint && r.attempts == 0 && r.dc_solves + r.tran_solves + r.arc_evals == 0,
        "the quarantined corner must replay with zero work: {r:?}"
    );
    assert_eq!(work::take(), Work::default());
}
