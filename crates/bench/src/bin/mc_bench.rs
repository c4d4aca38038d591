//! Monte-Carlo characterization economics: what a die sweep costs as the
//! population grows, and what the sigma-transfer head saves at a non-anchor
//! corner versus brute-force cold MC.
//!
//! Two measurements, written to `BENCH_mc.json` at the repo root:
//!
//! - `dies_scaling` — wall-clock of an MC sweep over the cell set at
//!   increasing die counts. MC cost is linear in dies, which is exactly why
//!   the flow anchors the full sweep at one corner only.
//! - `transfer_vs_full_mc` — at the 10 K corner: a full MC sweep over every
//!   cell versus the production path (MC on the probe subset, fit the
//!   warm→cold sigma ratio, predict the rest from the warm anchor). The
//!   warm anchor and the nominal cold library are untimed setup — the
//!   supervised flow materializes both regardless of MC.
//!
//! `--fast` shrinks the cell set and die counts for a CI smoke; the JSON is
//! only written in full mode (smoke numbers are not representative).

use std::time::Instant;

use cryo_cells::{topology, CellNetlist, CharConfig, Characterizer};
use cryo_device::{ModelCard, Polarity};
use cryo_lvf::transfer::SigmaTransfer;
use cryo_lvf::{McCharacterizer, McConfig};

/// The bench cell set: a prefix of the standard set with tie cells dropped
/// (no timing arcs — nothing for MC to measure).
fn cell_set(take: usize) -> Vec<CellNetlist> {
    topology::standard_cell_set()
        .into_iter()
        .filter(|c| !c.is_tie())
        .take(take)
        .collect()
}

fn engine(temp: f64, dies: usize) -> McCharacterizer {
    McCharacterizer::new(
        &ModelCard::nominal(Polarity::N),
        &ModelCard::nominal(Polarity::P),
        McConfig::new(dies, 0xC0FFEE, CharConfig::fast(temp)),
    )
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (take, die_counts) = if fast {
        (3usize, vec![2usize, 4])
    } else {
        (8, vec![2, 4, 8, 16])
    };
    let cells = cell_set(take);

    // (a) MC cost vs die count at the warm corner.
    let mut scaling = Vec::new();
    for &dies in &die_counts {
        let t = Instant::now();
        let (_, rep) = engine(300.0, dies).characterize_library("mc_bench", &cells, None);
        let s = t.elapsed().as_secs_f64();
        assert!(
            rep.failed.is_empty(),
            "bench sweep failed: {:?}",
            rep.failed
        );
        eprintln!("  mc {dies:>2} dies x {} cells: {s:.3} s", cells.len());
        scaling.push((dies, s));
    }

    // Untimed setup: the warm MC anchor and the nominal cold library, both
    // of which the supervised flow produces whether or not the transfer
    // head runs.
    let anchor_dies = *die_counts.last().unwrap();
    let (anchor, _) = engine(300.0, anchor_dies).characterize_library("warm_anchor", &cells, None);
    let nominal_cold = Characterizer::new(
        &ModelCard::nominal(Polarity::N),
        &ModelCard::nominal(Polarity::P),
        CharConfig::fast(10.0),
    );
    let (cold_nominal, _) = nominal_cold.characterize_library_robust("cold_nom", &cells, None);

    // (b) Brute force: full MC sweep of the cold corner.
    let t = Instant::now();
    let (_, rep) = engine(10.0, anchor_dies).characterize_library("cold_full", &cells, None);
    let full_mc_s = t.elapsed().as_secs_f64();
    assert!(rep.failed.is_empty());

    // (c) The transfer head: MC only the probe subset cold, fit the
    //     warm→cold sigma ratio, predict everything else from the anchor.
    let probes: Vec<CellNetlist> = cells.iter().step_by(3).cloned().collect();
    let t = Instant::now();
    let (probe_lib, rep) =
        engine(10.0, anchor_dies).characterize_library("cold_probe", &probes, None);
    assert!(rep.failed.is_empty());
    let fit = SigmaTransfer::fit(&anchor, &probe_lib).expect("transfer fit");
    let (predicted, fallbacks) = fit.apply(&cold_nominal, &anchor);
    let transfer_s = t.elapsed().as_secs_f64();
    let covered = predicted
        .cells()
        .iter()
        .filter(|c| c.arcs.iter().any(cryo_lvf::transfer::has_lvf))
        .count();
    let speedup = full_mc_s / transfer_s.max(1e-9);
    eprintln!(
        "  transfer head: {} probes + fit (ratio {:.3}) covers {covered}/{} cells in \
         {transfer_s:.3} s vs full cold MC {full_mc_s:.3} s => {speedup:.1}x",
        probes.len(),
        fit.ratio(),
        cells.len(),
    );

    if fast {
        eprintln!("smoke mode: BENCH_mc.json not written");
        return;
    }
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(d, s)| format!("{{\"dies\": {d}, \"seconds\": {s:.3}}}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"mc\",\n  \"description\": \"Monte-Carlo LVF characterization \
         over {n} standard cells (fast 3x3 grid), via `cargo run --release -p cryo-bench \
         --bin mc_bench`. dies_scaling times the warm sweep at growing die counts (cost is \
         linear in dies); transfer_vs_full_mc compares a full {dies}-die MC sweep of the \
         10 K corner against the production sigma-transfer head (MC on {p} probe cells, \
         fit the warm->cold sigma ratio, predict the rest from the 300 K anchor).\",\n  \
         \"cells\": {n},\n  \"dies_scaling\": [{scal}],\n  \
         \"full_cold_mc_s\": {full_mc_s:.3},\n  \"transfer_head_s\": {transfer_s:.3},\n  \
         \"transfer_ratio\": {ratio:.4},\n  \"transfer_covered_cells\": {covered},\n  \
         \"transfer_fallbacks\": {fb},\n  \
         \"transfer_speedup_over_full_mc\": {speedup:.1}\n}}\n",
        n = cells.len(),
        dies = anchor_dies,
        p = probes.len(),
        scal = scaling_json.join(", "),
        ratio = fit.ratio(),
        fb = fallbacks.len(),
    );
    std::fs::write("BENCH_mc.json", json).expect("write BENCH_mc.json");
    eprintln!("wrote BENCH_mc.json (transfer head {speedup:.1}x faster than full cold MC)");
}
