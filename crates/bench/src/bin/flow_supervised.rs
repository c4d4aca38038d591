//! Supervised end-to-end pipeline driver: runs the checkpointed flow,
//! prints the per-stage ledger (resume provenance, attempts, wall time,
//! solve/arc counters), and powers the CI kill-and-resume drill.
//!
//! Flags and environment hooks:
//!
//! - `--fast` — reduced grids and uncore (CI smoke; default is the paper's
//!   full configuration with caching under `data/`).
//! - `--data <dir>` — cache/checkpoint directory (default `data`; CI's
//!   ENOSPC drill points this at a near-full tmpfs).
//! - `--audit=off|warn|gate` (or `--audit <policy>`) — audit-firewall
//!   policy; overrides `CRYO_AUDIT` (default `warn`).
//! - `--audit-report <path>` — dump the machine-readable audit report as
//!   JSON: the pipeline's accumulated findings/repairs on success, or the
//!   terminal finding list when the run dies with an audit failure.
//! - `--surrogate[=<spec>]` (or `--surrogate <spec>`) — predict the cold
//!   corner with the learned surrogate instead of SPICE-characterizing it;
//!   bare `--surrogate` means `predict:0.75`, otherwise `<spec>` is any
//!   `CRYO_SURROGATE` value (`off` or `predict:<max_rel_err>`).
//! - `--surrogate-report <path>` — dump the surrogate summary (model hash,
//!   residual stats, per-cell fallback decisions) as JSON after a
//!   successful predicted run.
//! - `--mc[=<spec>]` (or `--mc <spec>`) — Monte-Carlo statistical signoff:
//!   LVF sigma tables plus a k-sigma-derated statistical STA pass at both
//!   corners; bare `--mc` means `n:8`, otherwise `<spec>` is any `CRYO_MC`
//!   value (`off` or `n:<dies>[,k:<sigma>]`).
//! - `--mc-report <path>` — dump the MC summary (per-corner golden-cell
//!   counts, relative sigma, transfer ratio, statistical STA numbers) as
//!   JSON after a successful statistical run.
//! - `CRYO_KILL_AFTER_STAGE=<stage>` — checkpoint through `<stage>`, then
//!   die by SIGKILL (a real crash: no destructors, no flushing), leaving
//!   the pipeline store behind for the next invocation to resume.
//! - `CRYO_EXPECT_RESUMED_THROUGH=<stage>` — after the run, assert every
//!   stage up to and including `<stage>` was loaded from its checkpoint
//!   with zero re-simulation; exit non-zero otherwise.

use std::time::Instant;

use cryo_bench::{arg_value, spec_flag, stage_by_name};
use cryo_cells::SurrogateSummary;
use cryo_core::supervise::{PipelineReport, Stage, Supervisor, SupervisorConfig};
use cryo_core::{AuditPolicy, CoreError, CryoFlow, FlowConfig, McPolicy, SurrogatePolicy};
use cryo_liberty::AuditReport;

fn write_audit_report(path: &str, audit: &AuditReport) {
    let json = serde_json::to_string(audit).expect("audit report serializes");
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write audit report {path}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "wrote audit report to {path} ({} finding(s), {} repaired)",
        audit.findings.len(),
        audit.repaired.len()
    );
}

fn write_surrogate_report(path: &str, summary: Option<&SurrogateSummary>) {
    let json = serde_json::to_string(&summary.cloned()).expect("surrogate summary serializes");
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write surrogate report {path}: {e}");
        std::process::exit(2);
    });
    match summary {
        Some(s) => eprintln!(
            "wrote surrogate report to {path} (model {}, {} predicted, {} fallback(s))",
            s.model_hash,
            s.predicted,
            s.fallbacks.len()
        ),
        None => eprintln!("wrote surrogate report to {path} (surrogate off: null)"),
    }
}

fn print_ledger(rep: &PipelineReport, wall_s: f64) {
    println!("=== supervised flow: pipeline {} ===", rep.pipeline_key);
    println!(
        "{:<12} {:>8} {:>9} {:>10} {:>9} {:>9} {:>10}",
        "stage", "resumed", "attempts", "wall(s)", "dc", "tran", "arc_evals"
    );
    for r in &rep.stages {
        println!(
            "{:<12} {:>8} {:>9} {:>10.3} {:>9} {:>9} {:>10}",
            r.stage.name(),
            if r.from_checkpoint { "yes" } else { "no" },
            r.attempts,
            r.wall_s,
            r.dc_solves,
            r.tran_solves,
            r.arc_evals
        );
    }
    println!("total wall: {wall_s:.3} s, completed: {}", rep.completed);
    if let Some(v) = &rep.verdict {
        println!(
            "verdict: fmax {:.0} MHz (300 K) -> {:.0} MHz (10 K), {:.1} mW @ 10 K \
             (cooling budget {}), kNN {:.1} us ({} decoherence), degraded arcs {}/{}",
            v.fmax_300_hz / 1e6,
            v.fmax_10_hz / 1e6,
            v.total_power_10k_w * 1e3,
            if v.fits_cooling_budget {
                "OK"
            } else {
                "EXCEEDED"
            },
            v.knn_classify_s * 1e6,
            if v.within_decoherence {
                "inside"
            } else {
                "OUTSIDE"
            },
            v.degraded_arcs_300,
            v.degraded_arcs_10,
        );
    }
}

fn write_mc_report(path: &str, summary: Option<&cryo_core::McSummary>) {
    let json = serde_json::to_string(&summary.cloned()).expect("mc summary serializes");
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write mc report {path}: {e}");
        std::process::exit(2);
    });
    match summary {
        Some(s) => eprintln!(
            "wrote mc report to {path} ({} dies/cell, k = {:.1}, {} corner(s))",
            s.dies,
            s.k_sigma,
            s.corners.len()
        ),
        None => eprintln!("wrote mc report to {path} (mc off: null)"),
    }
}

fn run(
    sup: &Supervisor,
    audit_report: Option<&str>,
    surrogate_report: Option<&str>,
    mc_report: Option<&str>,
) -> (PipelineReport, f64) {
    let t = Instant::now();
    match sup.run() {
        Ok(rep) => {
            if let Some(path) = audit_report {
                write_audit_report(path, &rep.audit);
            }
            if let Some(path) = surrogate_report {
                write_surrogate_report(path, rep.surrogate.as_ref());
            }
            if let Some(path) = mc_report {
                write_mc_report(path, rep.mc.as_ref());
            }
            (rep, t.elapsed().as_secs_f64())
        }
        Err(e) => {
            if let (Some(path), CoreError::AuditFailed { report, .. }) = (audit_report, &e) {
                write_audit_report(path, report);
            }
            eprintln!("supervised flow failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let kill_after = std::env::var("CRYO_KILL_AFTER_STAGE")
        .ok()
        .map(|n| stage_by_name(&n));
    let data = arg_value("--data").unwrap_or_else(|| "data".to_string());
    let mut cfg = if fast {
        FlowConfig::fast(&data)
    } else {
        let mut cfg = FlowConfig::full(&data);
        cfg.char_300k.progress = true;
        cfg.char_10k.progress = true;
        cfg
    };
    if let Some(p) = arg_value("--audit") {
        cfg.audit_policy = AuditPolicy::parse(&p).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    }
    if let Some(spec) = spec_flag("--surrogate", "predict:0.75") {
        cfg.surrogate_policy = SurrogatePolicy::parse(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    }
    if let Some(spec) = spec_flag("--mc", "n:8") {
        cfg.mc_policy = McPolicy::parse(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    }
    let audit_report = arg_value("--audit-report");
    let surrogate_report = arg_value("--surrogate-report");
    let mc_report = arg_value("--mc-report");
    // MC cost is linear in the die count; a budget tuned for the nominal
    // flow would time out a sizeable die population on a cold store.
    let scale = cfg.mc_policy.budget_scale();
    let base = SupervisorConfig::default();
    let sup = Supervisor::new(
        CryoFlow::new(cfg),
        SupervisorConfig {
            halt_after: kill_after,
            stage_budget: base.stage_budget * scale,
            overall_budget: base.overall_budget * scale,
            ..base
        },
    );
    let (rep, wall_s) = run(
        &sup,
        audit_report.as_deref(),
        surrogate_report.as_deref(),
        mc_report.as_deref(),
    );
    print_ledger(&rep, wall_s);
    if !rep.audit.is_clean() {
        println!("audit: {}", rep.audit.summary());
    }
    if let Some(s) = &rep.surrogate {
        println!(
            "surrogate: model {}, {} cell(s) predicted, {} SPICE fallback(s){}{}",
            s.model_hash,
            s.predicted,
            s.fallbacks.len(),
            if s.fallbacks.is_empty() { "" } else { ": " },
            s.fallbacks.join(", ")
        );
    }
    if let Some(mc) = &rep.mc {
        println!("mc: {} dies/cell, k = {:.1} sigma", mc.dies, mc.k_sigma);
        for c in &mc.corners {
            println!(
                "  {:>4}: {} golden cell(s) ({} restored, {} simulated, {} failed), \
                 rel sigma {:.3}%{}, {} fallback(s); critical-path sigma {:.1} ps, \
                 worst k-sigma slack {:.1} ps",
                c.corner,
                c.cells,
                c.restored,
                c.simulated,
                c.failed,
                c.mean_rel_sigma * 100.0,
                c.transfer_ratio
                    .map_or(String::new(), |r| format!(" (transfer ratio {r:.2})")),
                c.fallbacks,
                c.critical_path_sigma * 1e12,
                c.worst_slack_k_sigma * 1e12,
            );
        }
    }

    if let Some(stage) = kill_after {
        // Die the hard way: the checkpoint files on disk are all the next
        // run gets, exactly like a crashed or OOM-killed job.
        println!(
            "checkpointed through {}; sending SIGKILL to self",
            stage.name()
        );
        let _ = std::process::Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // If `kill` is unavailable we still honor the contract of "did
        // not finish cleanly".
        std::process::exit(137);
    }

    if let Ok(name) = std::env::var("CRYO_EXPECT_RESUMED_THROUGH") {
        let through = stage_by_name(&name);
        let upto = Stage::ALL.iter().position(|s| *s == through).unwrap();
        let covered = |r: &&cryo_core::supervise::StageRecord| {
            Stage::ALL.iter().position(|s| *s == r.stage).unwrap() <= upto
        };
        for r in rep.stages.iter().filter(covered) {
            if !r.from_checkpoint || r.dc_solves + r.tran_solves + r.arc_evals != 0 {
                eprintln!(
                    "stage {} was NOT resumed from checkpoint (resumed={}, dc={}, tran={}, \
                     arc_evals={})",
                    r.stage.name(),
                    r.from_checkpoint,
                    r.dc_solves,
                    r.tran_solves,
                    r.arc_evals
                );
                std::process::exit(1);
            }
        }
        println!(
            "resume verified: stages through {} replayed from checkpoints with zero re-simulation",
            through.name()
        );
    }
}
