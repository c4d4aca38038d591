//! Storage-fault chaos matrix: seeded drills over the durable-I/O layer.
//!
//! Each drill composes 1–3 `io=` storage faults (torn write, short read,
//! transient EIO, ENOSPC, rename drop, fsync lie) — optionally stacked
//! with the legacy transient-solver and cache-corruption families — kills
//! the characterization run partway through, applies crash effects
//! (fsync-lie loss, at-rest bit flips), then proves the DESIGN.md §15
//! durability invariants: no wrong bits are ever served, a faults-off
//! resume converges byte-identically to the fault-free baseline, and
//! re-simulation is bounded by exactly the damaged set.
//!
//! The tier-1 suite runs a 16-seed slice; CI's `chaos-gate` job runs the
//! full 64-seed matrix (plus a real-ENOSPC tmpfs drill) via the
//! `chaos_drill` binary, whose default is `--seeds 64`.

use std::path::PathBuf;

use cryo_soc::core::chaos::{self, ChaosSchedule, DrillLedger};

/// A fresh scratch cache, wiped before use.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryo_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a seed range, asserting every invariant and returning the ledgers.
fn run_range(tag: &str, seeds: std::ops::Range<u64>) -> Vec<DrillLedger> {
    let dir = scratch(tag);
    let mut ledgers = Vec::new();
    for seed in seeds {
        let ledger = chaos::run_drill(&dir, seed)
            .unwrap_or_else(|e| panic!("durability invariant violated: {e}"));
        assert!(
            ledger.passed(),
            "seed {seed}: ledger did not pass: {ledger:?}"
        );
        ledgers.push(ledger);
    }
    let _ = std::fs::remove_dir_all(&dir);
    ledgers
}

#[test]
fn chaos_matrix_seeds_0_to_8() {
    let ledgers = run_range("m0", 0..8);
    // The low seeds must actually exercise the machinery: some entry
    // somewhere survives, and some entry somewhere gets quarantined.
    assert!(
        ledgers.iter().any(|l| !l.survivors.is_empty()),
        "no drill in 0..8 had any surviving checkpoint"
    );
    assert!(
        ledgers
            .iter()
            .any(|l| !l.scrub_truncated.is_empty() || !l.scrub_bit_rot.is_empty()),
        "no drill in 0..8 quarantined anything"
    );
}

#[test]
fn chaos_matrix_seeds_8_to_16() {
    run_range("m1", 8..16);
}

#[test]
fn drills_are_deterministic() {
    // Same seed, fresh store each time: byte-identical ledger, including
    // the survivor set and scrub classification.
    let a = run_range("det_a", 5..6).remove(0);
    let b = run_range("det_b", 5..6).remove(0);
    assert_eq!(a, b, "a drill must be a pure function of its seed");
}

#[test]
fn drill_ledgers_serialize_for_the_ci_artifact() {
    let ledger = run_range("json", 3..4).remove(0);
    let json = serde_json::to_string(&ledger).expect("ledgers serialize");
    let back: DrillLedger = serde_json::from_str(&json).expect("ledgers round-trip");
    assert_eq!(back, ledger);
    assert!(json.contains("\"spec\""), "ledger carries the fault spec");
}

#[test]
fn schedule_matrix_covers_every_io_fault_and_both_job_counts() {
    // Coverage proof for the full 64-seed CI matrix without running it:
    // schedules are deterministic, so inspecting them is equivalent.
    let schedules: Vec<ChaosSchedule> = (0..64).map(|s| ChaosSchedule::generate(s, 6)).collect();
    for kind in [
        "torn",
        "shortread",
        "eio",
        "enospc",
        "renamedrop",
        "fsynclie",
    ] {
        assert!(
            schedules
                .iter()
                .any(|s| s.spec.contains(&format!("io={kind}:"))),
            "64-seed matrix never arms io={kind}"
        );
    }
    assert!(schedules.iter().any(|s| s.jobs_a == 1 && s.jobs_b == 8));
    assert!(schedules.iter().any(|s| s.jobs_a == 8 && s.jobs_b == 1));
    assert!(schedules.iter().any(|s| s.fsync_crash));
    assert!(schedules.iter().any(|s| s.at_rest_flip));
    assert!(schedules.iter().any(|s| s.spec.contains("tran=")));
    assert!(schedules.iter().any(|s| s.spec.contains("cache=")));
    assert!(
        schedules.iter().any(|s| s.kill_after == 6),
        "full-run kills"
    );
    assert!(schedules.iter().any(|s| s.kill_after == 1), "early kills");
}
