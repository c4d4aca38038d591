//! Seeded storage-fault chaos drills over the checkpoint store (the CI
//! `chaos-gate` driver).
//!
//! Usage: `chaos_drill [--seeds N] [--start S] [--out DIR]`
//!
//! Runs seeds `S..S+N` of [`cryo_core::chaos::run_drill`] in a scratch
//! cache, writes one `drill_<seed>.json` ledger per run plus a
//! `chaos_summary.json` roll-up under `--out` (default
//! `target/chaos-drills`), and exits non-zero if any drill violates a
//! durability invariant. Every run is deterministic: same seed, same
//! schedule, same faults, same ledger.

use std::fs;
use std::path::PathBuf;

use cryo_bench::arg_value;
use cryo_core::chaos::{self, DrillLedger};
use serde::Serialize;

#[derive(Serialize)]
struct Summary {
    seeds: usize,
    start: u64,
    passed: usize,
    failed: usize,
    total_survivors: usize,
    total_recharacterized: usize,
    total_quarantined: usize,
    total_unsynced_lost: usize,
    failures: Vec<String>,
}

fn main() {
    let seeds: u64 = arg_value("--seeds").map_or(64, |v| v.parse().expect("--seeds N"));
    let start: u64 = arg_value("--start").map_or(0, |v| v.parse().expect("--start S"));
    let out = PathBuf::from(arg_value("--out").unwrap_or_else(|| "target/chaos-drills".into()));
    fs::create_dir_all(&out).expect("create --out dir");
    let cache = out.join("scratch");
    let _ = fs::remove_dir_all(&cache);
    fs::create_dir_all(&cache).expect("create scratch cache");

    let mut ledgers: Vec<DrillLedger> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for seed in start..start + seeds {
        match chaos::run_drill(&cache, seed) {
            Ok(ledger) => {
                println!(
                    "seed {seed:>4}: PASS  spec={}  jobs {}→{}  kill_after={}  \
                     survivors={}  rechar={}  quarantined={}",
                    ledger.spec,
                    ledger.jobs_a,
                    ledger.jobs_b,
                    ledger.kill_after,
                    ledger.survivors.len(),
                    ledger.recharacterized,
                    ledger.scrub_truncated.len() + ledger.scrub_bit_rot.len(),
                );
                let json = serde_json::to_string(&ledger).expect("ledgers serialize");
                fs::write(out.join(format!("drill_{seed}.json")), json)
                    .expect("write drill ledger");
                ledgers.push(ledger);
            }
            Err(e) => {
                eprintln!("seed {seed:>4}: FAIL  {e}");
                failures.push(e);
            }
        }
    }

    let summary = Summary {
        seeds: seeds as usize,
        start,
        passed: ledgers.len(),
        failed: failures.len(),
        total_survivors: ledgers.iter().map(|l| l.survivors.len()).sum(),
        total_recharacterized: ledgers.iter().map(|l| l.recharacterized).sum(),
        total_quarantined: ledgers
            .iter()
            .map(|l| l.scrub_truncated.len() + l.scrub_bit_rot.len())
            .sum(),
        total_unsynced_lost: ledgers.iter().map(|l| l.unsynced_lost).sum(),
        failures: failures.clone(),
    };
    let json = serde_json::to_string(&summary).expect("summary serializes");
    fs::write(out.join("chaos_summary.json"), json).expect("write summary");
    println!(
        "chaos drill matrix: {}/{} passed ({} survivors, {} re-characterized, \
         {} quarantined, {} fsync-lied writes lost)",
        summary.passed,
        seeds,
        summary.total_survivors,
        summary.total_recharacterized,
        summary.total_quarantined,
        summary.total_unsynced_lost,
    );
    if !failures.is_empty() {
        eprintln!(
            "{} drill(s) violated a durability invariant",
            failures.len()
        );
        std::process::exit(1);
    }
}
