//! The learned library surrogate, end to end: byte-deterministic training
//! across worker counts (with a golden model hash), kill/resume
//! mid-training with zero repeated epochs, audit-gated per-cell SPICE
//! fallback counter-proven to never re-simulate a trusted cell, and a
//! fully predicted cold corner passing supervised signoff — while every
//! SPICE artifact stays byte-identical to a surrogate-off run.

use std::path::PathBuf;

use cryo_soc::cells::{cache, topology, CellStatus, CharConfig, Characterizer, CheckpointStore};
use cryo_soc::core::supervise::{Supervisor, SupervisorConfig};
use cryo_soc::core::{CryoFlow, FlowConfig, SurrogatePolicy};
use cryo_soc::device::{CornerScalars, ModelCard, Polarity};
use cryo_soc::liberty::{Library, Provenance};
use cryo_soc::spice::{work, FaultPlan};
use cryo_soc::surrogate::{fit, TrainConfig};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Residual bound used across the suite: comfortably above the clean
/// model's worst per-cell residual, far below a sign-flip's ~2.0
/// signature.
const BOUND: f64 = 0.75;

/// A unique scratch cache directory, wiped before use.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryo_surrogate_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn flow_at(dir: &PathBuf, jobs: usize) -> CryoFlow {
    let mut cfg = FlowConfig::fast(dir);
    cfg.fault_plan = None;
    cfg.audit_policy = cryo_soc::core::AuditPolicy::Warn;
    cfg.surrogate_policy = SurrogatePolicy::Off;
    cfg.jobs = jobs;
    CryoFlow::new(cfg)
}

#[test]
fn predicted_corner_is_byte_deterministic_across_job_counts_and_matches_golden() {
    // One warm anchor, two surrogate runs at jobs = 1 and jobs = 8: the
    // probe characterization is byte-deterministic across worker counts
    // (the PR-2 contract) and training is single-threaded by design, so
    // the model hash and every predicted table must match bit for bit.
    let warm_dir = scratch("warm_det");
    let (warm, _) = flow_at(&warm_dir, 1)
        .library_with_report(300.0)
        .expect("warm corner");
    let mut outs = Vec::new();
    for jobs in [1usize, 8] {
        let dir = scratch(&format!("det_j{jobs}"));
        let flow = flow_at(&dir, jobs);
        let (lib, rep) = flow
            .surrogate_library_with_report(10.0, &warm, BOUND)
            .expect("predicted corner");
        let sum = rep.surrogate.clone().expect("surrogate summary");
        assert!(
            sum.fallbacks.is_empty(),
            "clean inputs must predict every cell (fallbacks {:?}, residual {:?})",
            sum.fallbacks,
            sum.residual
        );
        assert_eq!(sum.predicted, lib.cells().len());
        assert!(
            matches!(lib.provenance, Provenance::Predicted { .. }),
            "predicted library must carry prediction provenance"
        );
        assert!(
            rep.outcomes
                .iter()
                .all(|o| o.status == CellStatus::Predicted && o.attempts == 0),
            "every cell must be model-predicted with zero SPICE attempts"
        );
        outs.push((sum.model_hash.clone(), serde_json::to_string(&lib).unwrap()));
    }
    assert_eq!(
        outs[0], outs[1],
        "jobs=1 vs jobs=8 must produce bit-identical model and library"
    );

    // Golden model hash: training is deterministic end to end (seeded
    // shuffles, hand-rolled exp/ln/tanh), so the hash is a platform-
    // independent constant. `CRYO_BLESS=1` regenerates.
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/surrogate_model_hash.txt");
    let hash = &outs[0].0;
    if std::env::var("CRYO_BLESS").is_ok() {
        std::fs::write(&golden, format!("{hash}\n")).expect("bless golden model hash");
    }
    let want = std::fs::read_to_string(&golden)
        .expect("tests/golden/surrogate_model_hash.txt (CRYO_BLESS=1 regenerates)");
    assert_eq!(
        want.trim(),
        hash,
        "trained model hash drifted from golden (CRYO_BLESS=1 regenerates)"
    );
}

#[test]
fn interrupted_training_resumes_with_zero_repeated_epochs() {
    // Real probe data (a 12-cell prefix at both corners), killed after 11
    // of 120 epochs: the resumed run executes exactly the remaining 109 and
    // lands on the bit-identical model an uninterrupted run produces.
    let cells: Vec<_> = topology::standard_cell_set().into_iter().take(12).collect();
    let nc = ModelCard::nominal(Polarity::N);
    let pc = ModelCard::nominal(Polarity::P);
    let c300 = CharConfig::fast(300.0);
    let c10 = CharConfig::fast(10.0);
    let (warm, _) =
        Characterizer::new(&nc, &pc, c300.clone()).characterize_library_robust("w", &cells, None);
    let (cold, _) =
        Characterizer::new(&nc, &pc, c10.clone()).characterize_library_robust("c", &cells, None);
    let warm_sc = CornerScalars::at(&nc, &pc, c300.vdd, 300.0);
    let cold_sc = CornerScalars::at(&nc, &pc, c10.vdd, 10.0);

    let full_cfg = TrainConfig::default();
    let (reference, ref_out, _) = fit(&warm, &cold, warm_sc, cold_sc, &full_cfg, None);
    assert_eq!(ref_out.epochs_run, full_cfg.epochs);
    assert_eq!(ref_out.resumed_from, 0);

    let dir = scratch("resume");
    let store = CheckpointStore::open(&dir, "train", "k").expect("store");
    let interrupted_cfg = TrainConfig {
        epochs: 11,
        ..TrainConfig::default()
    };
    let (_, out1, _) = fit(
        &warm,
        &cold,
        warm_sc,
        cold_sc,
        &interrupted_cfg,
        Some(&store),
    );
    assert_eq!(out1.epochs_run, 11, "the interrupted leg runs 11 epochs");

    let (resumed, out2, _) = fit(&warm, &cold, warm_sc, cold_sc, &full_cfg, Some(&store));
    assert_eq!(
        out2.resumed_from, 11,
        "resume must pick up at the kill point"
    );
    assert_eq!(
        out2.epochs_run,
        full_cfg.epochs - 11,
        "resume must execute exactly the remaining epochs — zero repeats"
    );
    assert_eq!(
        resumed.model_hash(),
        reference.model_hash(),
        "interrupted + resumed training must be bit-identical to uninterrupted"
    );

    // A third invocation finds a fully trained checkpoint: zero epochs.
    let (_, out3, _) = fit(&warm, &cold, warm_sc, cold_sc, &full_cfg, Some(&store));
    assert_eq!(out3.epochs_run, 0, "nothing left to train");
    assert_eq!(out3.resumed_from, full_cfg.epochs);
}

/// Scale every NLDM table value of `lib` (delay, transition, energy) by
/// `factor`, leaving axes, leakage and pins untouched.
fn scale_tables(lib: &Library, factor: f64) -> Library {
    fn walk(v: &mut Value, factor: f64) {
        match v {
            Value::Object(fields) => {
                for (k, field) in fields.iter_mut() {
                    match field {
                        Value::Array(xs) if k == "values" => {
                            for x in xs {
                                if let Value::Number(n) = x {
                                    *n *= factor;
                                }
                            }
                        }
                        _ => walk(field, factor),
                    }
                }
            }
            Value::Array(xs) => xs.iter_mut().for_each(|x| walk(x, factor)),
            _ => {}
        }
    }
    let mut v = lib.to_value();
    walk(&mut v, factor);
    Library::from_value(&v).expect("scaled library deserializes")
}

#[test]
fn training_is_insensitive_to_last_bit_changes_in_the_warm_library() {
    // Held-out residuals gate every predicted cell against `BOUND`, so they
    // must be a property of the data, not of rounding noise: a warm
    // library whose tables differ only in the last bits has to train to
    // the same residuals.
    let cells = topology::standard_cell_set();
    let probes: Vec<_> = cells.iter().filter(|c| c.drive == 1).cloned().collect();
    let nc = ModelCard::nominal(Polarity::N);
    let pc = ModelCard::nominal(Polarity::P);
    let (c300, c10) = (CharConfig::fast(300.0), CharConfig::fast(10.0));
    let (warm, _) =
        Characterizer::new(&nc, &pc, c300.clone()).characterize_library_robust("w", &cells, None);
    let (probe, _) =
        Characterizer::new(&nc, &pc, c10.clone()).characterize_library_robust("p", &probes, None);
    let warm_sc = CornerScalars::at(&nc, &pc, c300.vdd, 300.0);
    let cold_sc = CornerScalars::at(&nc, &pc, c10.vdd, 10.0);
    let residual = |warm: &Library| {
        let (sur, _, dataset) = fit(
            warm,
            &probe,
            warm_sc,
            cold_sc,
            &TrainConfig::default(),
            None,
        );
        sur.residuals(&dataset).0
    };
    let base = residual(&warm);
    let nudged = residual(&scale_tables(&warm, 1.0 + 1e-12));
    assert!(
        base.max_abs_rel_err < BOUND,
        "clean fit must clear the bound: {base:?}"
    );
    for (a, b) in [
        (base.mean_abs_rel_err, nudged.mean_abs_rel_err),
        (base.max_abs_rel_err, nudged.max_abs_rel_err),
    ] {
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(b.abs()),
            "a 1e-12 relative nudge of the warm tables moved the residuals: {base:?} vs {nudged:?}"
        );
    }
}

#[test]
fn poisoned_probe_falls_back_to_spice_for_exactly_the_distrusted_cell() {
    // Clean leg: the SPICE cost of an all-trusted prediction.
    let dir_clean = scratch("fb_clean");
    let flow_clean = flow_at(&dir_clean, 1);
    let (warm_clean, _) = flow_clean.library_with_report(300.0).expect("warm");
    let _ = work::take();
    let (_, rep_clean) = flow_clean
        .surrogate_library_with_report(10.0, &warm_clean, BOUND)
        .expect("clean predicted corner");
    let clean_sims = work::take();
    assert!(rep_clean.surrogate.unwrap().fallbacks.is_empty());

    // Poisoned leg: the warm corner is primed fault-free into the cache
    // first, so the scoped `corrupt=table` can only strike the cold probe
    // characterization — corrupting XOR2x1's ground truth, not its
    // prediction.
    let dir = scratch("fb_poison");
    let (warm, _) = flow_at(&dir, 1)
        .library_with_report(300.0)
        .expect("warm primed");
    let mut cfg = FlowConfig::fast(&dir);
    cfg.audit_policy = cryo_soc::core::AuditPolicy::Warn;
    cfg.surrogate_policy = SurrogatePolicy::Off;
    cfg.jobs = 1;
    cfg.fault_plan = Some(FaultPlan {
        corrupt_table: 1.0,
        scope: Some("XOR2x1".into()),
        ..FaultPlan::new(11)
    });
    let flow_poison = CryoFlow::new(cfg);
    let _ = work::take();
    let (lib, rep) = flow_poison
        .surrogate_library_with_report(10.0, &warm, BOUND)
        .expect("poisoned probe must repair via fallback, not fail");
    let poison_sims = work::take();
    let sum = rep.surrogate.clone().expect("summary");
    assert_eq!(
        sum.fallbacks,
        vec!["XOR2x1".to_string()],
        "exactly the poisoned probe cell is distrusted"
    );
    for o in &rep.outcomes {
        if o.name == "XOR2x1" {
            assert_ne!(
                o.status,
                CellStatus::Predicted,
                "the fallback cell is SPICE"
            );
        } else {
            assert!(
                o.status == CellStatus::Predicted && o.attempts == 0,
                "{} must stay predicted with zero attempts",
                o.name
            );
        }
    }
    assert!(matches!(lib.provenance, Provenance::Predicted { .. }));

    // Counter-proof: the poisoned run costs exactly (clean surrogate run)
    // + (SPICE characterization of the one distrusted cell). Zero
    // re-simulation of any trusted cell.
    let nc = ModelCard::nominal(Polarity::N);
    let pc = ModelCard::nominal(Polarity::P);
    let one = vec![topology::by_name("XOR2x1").expect("XOR2x1 exists")];
    let _ = work::take();
    let _ = Characterizer::new(&nc, &pc, CharConfig::fast(10.0))
        .characterize_library_robust("one", &one, None);
    let one_sims = work::take();
    assert_eq!(
        poison_sims.tran,
        clean_sims.tran + one_sims.tran,
        "fallback must cost exactly one cell's SPICE on top of the clean run"
    );
}

#[test]
fn supervised_pipeline_signs_off_a_predicted_corner_and_resumes_it() {
    let dir = scratch("signoff");
    let mut cfg = FlowConfig::fast(&dir);
    cfg.fault_plan = None;
    cfg.audit_policy = cryo_soc::core::AuditPolicy::Warn;
    cfg.surrogate_policy = SurrogatePolicy::PredictWithFallback { max_rel_err: BOUND };
    cfg.jobs = 1;
    let sup = Supervisor::new(CryoFlow::new(cfg.clone()), SupervisorConfig::default());
    let rep = sup.run().expect("predicted-corner signoff");
    assert!(rep.completed);
    assert!(
        rep.audit.is_clean(),
        "predicted corner must pass the audit firewall: {:?}",
        rep.audit
    );
    let sum = rep
        .surrogate
        .clone()
        .expect("pipeline report lifts the surrogate summary");
    assert!(sum.predicted > 0 && sum.fallbacks.is_empty());
    let json = serde_json::to_string(&rep).expect("report serializes");
    assert!(
        json.contains("\"surrogate\"") && json.contains(&sum.model_hash),
        "serialized pipeline report must carry the surrogate summary"
    );
    let v = rep.verdict.expect("verdict");
    assert!(
        v.cryo_fmax_ratio > 0.5 && v.cryo_fmax_ratio < 1.1,
        "predicted cold corner must yield a physical fmax ratio (got {})",
        v.cryo_fmax_ratio
    );

    // Namespace isolation: the predicted artifact lives under its own
    // blob; the SPICE cold-corner artifact is never written.
    let key = sup.pipeline_key().expect("key");
    let store = CheckpointStore::open(&dir, "pipeline", &key).expect("store");
    assert!(store.load_blob("charlib10_sur").is_some());
    assert!(
        store.load_blob("charlib10").is_none(),
        "a surrogate run must not write SPICE cold-corner artifacts"
    );

    // The surrogate policy shifts neither the pipeline key nor the warm
    // SPICE cache: the 300 K library this run wrote is exactly the file a
    // surrogate-off run reads.
    let mut off_cfg = FlowConfig::fast(&dir);
    off_cfg.fault_plan = None;
    off_cfg.surrogate_policy = SurrogatePolicy::Off;
    off_cfg.jobs = 1;
    let off_flow = CryoFlow::new(off_cfg.clone());
    let sup_off = Supervisor::new(off_flow.clone(), SupervisorConfig::default());
    assert_eq!(
        key,
        sup_off.pipeline_key().expect("key"),
        "surrogate policy must be excluded from the pipeline key"
    );
    let (nfet, pfet) = off_flow.effective_cards();
    let tag = cache::cell_set_tag(&topology::standard_cell_set());
    let k300 = cache::cache_key(&nfet, &pfet, &off_cfg.char_300k, &tag).expect("key");
    assert!(
        cache::load(&dir, "cryo5_tt_0p70v_300k", &k300).is_some(),
        "warm SPICE cache must be byte-addressable by a surrogate-off run"
    );

    // Resume: every stage (including the predicted corner) replays from
    // its checkpoint with zero SPICE.
    let sup2 = Supervisor::new(CryoFlow::new(cfg), SupervisorConfig::default());
    let rep2 = sup2.run().expect("resumed run");
    assert!(
        rep2.stages
            .iter()
            .all(|r| r.from_checkpoint && r.dc_solves + r.tran_solves == 0),
        "resume must replay every stage from checkpoints: {:?}",
        rep2.stages
    );
    assert_eq!(
        serde_json::to_string(&rep.surrogate).unwrap(),
        serde_json::to_string(&rep2.surrogate).unwrap(),
        "the resumed surrogate summary must round-trip bit-identically"
    );
}
