//! PVT corner-farm driver: runs the fault-isolated multi-corner signoff,
//! prints the per-corner ledger and provenance table, and powers the CI
//! kill-and-resume and poisoned-corner drills.
//!
//! Flags and environment hooks:
//!
//! - `--corners=<spec>` — the corner set as a `CRYO_CORNERS` spec
//!   (`T=300,77,4.2;V=0.70,0.65;P=tt,ss`); the flag wins over the
//!   environment variable; default `T=300,77,10`.
//! - `--fast` — reduced grids and uncore (CI smoke; default is the paper's
//!   full configuration with caching under `data/`).
//! - `--audit=off|warn|gate` — audit-firewall policy (default `warn`).
//! - `--surrogate[=<spec>]` — predict non-anchor corners from each
//!   (process, VDD) group's warmest SPICE anchor; bare flag means
//!   `predict:0.75`.
//! - `--min-signed=<frac>` — signoff floor (default 0.9).
//! - `--derate=<margin>` — let failed corners borrow their nearest signed
//!   neighbor's numbers with this pessimism margin.
//! - `--report=<path>` — dump the farm report as JSON.
//! - `CRYO_KILL_AFTER_CORNERS=<n>` — checkpoint the first `n` corners,
//!   then die by SIGKILL (a real crash), leaving the farm store behind.
//! - `CRYO_EXPECT_RESUMED_CORNERS=<n>` — assert the first `n` corners
//!   replayed from checkpoints with zero re-simulation; exit non-zero
//!   otherwise.
//!
//! Exit status: non-zero when the farm misses its signoff floor, so CI can
//! gate on the degraded-but-signed contract directly.

use std::time::Instant;

use cryo_bench::{arg_value, die, spec_flag};
use cryo_core::corners::{CornerFarm, CornerProvenance, CornerSpec, FarmConfig, FarmRun};
use cryo_core::{AuditPolicy, CryoFlow, FlowConfig, SurrogatePolicy};

fn provenance_label(p: &CornerProvenance) -> String {
    match p {
        CornerProvenance::Spice => "spice".into(),
        CornerProvenance::Predicted { model_hash } => format!("predicted({model_hash})"),
        CornerProvenance::Derated { from, margin } => {
            format!("derated(from {from}, margin {margin})")
        }
        CornerProvenance::Failed { cause } => format!("FAILED: {cause}"),
    }
}

fn print_farm(run: &FarmRun, wall_s: f64) {
    let rep = &run.report;
    println!("=== corner farm {} ===", rep.farm_key);
    println!(
        "{:<16} {:>8} {:>9} {:>10} {:>9} {:>9} {:>10}  provenance",
        "corner", "resumed", "attempts", "wall(s)", "dc", "tran", "arc_evals"
    );
    for (r, o) in run.ledger.iter().zip(&rep.corners) {
        println!(
            "{:<16} {:>8} {:>9} {:>10.3} {:>9} {:>9} {:>10}  {}",
            r.corner,
            if r.from_checkpoint { "yes" } else { "no" },
            r.attempts,
            r.wall_s,
            r.dc_solves,
            r.tran_solves,
            r.arc_evals,
            provenance_label(&o.provenance)
        );
    }
    for o in &rep.corners {
        if let Some(f) = o.fmax_hz {
            println!(
                "  {:<16} fmax {:>8.0} MHz, {} cells, {} degraded arc(s){}{}",
                o.name,
                f / 1e6,
                o.cells,
                o.degraded_arcs,
                if o.repaired.is_empty() {
                    ""
                } else {
                    ", repaired: "
                },
                o.repaired.join(", ")
            );
        }
    }
    println!(
        "total wall: {wall_s:.3} s, completed: {}, signed {}/{} (floor {:.0} %), \
         failed {}, signoff: {}",
        rep.completed,
        rep.signed,
        rep.corners.len(),
        rep.min_signed_frac * 100.0,
        rep.failed,
        if rep.signoff { "YES" } else { "NO" }
    );
}

fn farm_config(spec: CornerSpec, halt_after: Option<usize>) -> FarmConfig {
    let mut fcfg = FarmConfig::new(spec);
    if let Some(v) = arg_value("--min-signed") {
        fcfg.min_signed_frac = v
            .parse()
            .unwrap_or_else(|_| die(&format!("bad --min-signed {v:?}")));
    }
    if let Some(v) = arg_value("--derate") {
        fcfg.derate_margin = Some(
            v.parse()
                .unwrap_or_else(|_| die(&format!("bad --derate {v:?}"))),
        );
    }
    fcfg.halt_after = halt_after;
    fcfg
}

fn run_farm(farm: &CornerFarm) -> (FarmRun, f64) {
    let t = Instant::now();
    match farm.run() {
        Ok(run) => (run, t.elapsed().as_secs_f64()),
        Err(e) => {
            eprintln!("corner farm failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let spec_str = arg_value("--corners")
        .or_else(|| std::env::var("CRYO_CORNERS").ok())
        .unwrap_or_else(|| "T=300,77,10".to_string());
    let spec = CornerSpec::parse(&spec_str)
        .unwrap_or_else(|e| die(&format!("bad corner spec {spec_str:?}: {e}")));
    let kill_after: Option<usize> = std::env::var("CRYO_KILL_AFTER_CORNERS").ok().map(|n| {
        n.parse()
            .unwrap_or_else(|_| die("bad CRYO_KILL_AFTER_CORNERS"))
    });
    let mut cfg = if fast {
        FlowConfig::fast("data")
    } else {
        FlowConfig::full("data")
    };
    if let Some(p) = arg_value("--audit") {
        cfg.audit_policy = AuditPolicy::parse(&p).unwrap_or_else(|e| die(&e));
    }
    if let Some(s) = spec_flag("--surrogate", "predict:0.75") {
        cfg.surrogate_policy = SurrogatePolicy::parse(&s).unwrap_or_else(|e| die(&e));
    }
    let farm = CornerFarm::new(CryoFlow::new(cfg), farm_config(spec, kill_after));
    let (run, wall_s) = run_farm(&farm);
    print_farm(&run, wall_s);
    if let Some(path) = arg_value("--report") {
        let json = serde_json::to_string(&run.report).expect("farm report serializes");
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote farm report to {path}");
    }

    if let Some(n) = kill_after {
        // Die the hard way: the checkpoint blobs on disk are all the next
        // run gets, exactly like a crashed or OOM-killed job.
        println!("checkpointed {n} corner(s); sending SIGKILL to self");
        let _ = std::process::Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        std::process::exit(137);
    }

    if let Ok(n) = std::env::var("CRYO_EXPECT_RESUMED_CORNERS") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| die("bad CRYO_EXPECT_RESUMED_CORNERS"));
        for r in run.ledger.iter().take(n) {
            if !r.from_checkpoint || r.dc_solves + r.tran_solves + r.arc_evals != 0 {
                eprintln!(
                    "corner {} was NOT resumed from checkpoint (resumed={}, dc={}, tran={}, \
                     arc_evals={})",
                    r.corner, r.from_checkpoint, r.dc_solves, r.tran_solves, r.arc_evals
                );
                std::process::exit(1);
            }
        }
        println!(
            "resume verified: {n} corner(s) replayed from checkpoints with zero re-simulation"
        );
    }

    if let Some(e) = run.signoff_error() {
        eprintln!("{e}");
        std::process::exit(3);
    }
}
