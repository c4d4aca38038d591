//! Storage-fault chaos engine: seeded drills over the durable-I/O layer.
//!
//! A drill is one full crash-and-recover story, generated deterministically
//! from a seed:
//!
//! 1. **Baseline.** Characterize a mini library with faults off — the
//!    ground truth every later byte is compared against.
//! 2. **Chaos run.** Re-characterize a *prefix* of the cell set (a
//!    simulated `kill -9` partway through) under a composed
//!    [`FaultPlan`]: 1–3 `io=` storage faults (torn write, short read,
//!    transient `EIO`, `ENOSPC`, rename drop, fsync lie), optionally
//!    stacked with the legacy transient-simulator and cache-corruption
//!    families, at a seed-chosen worker count.
//! 3. **Crash.** Optionally lose every fsync-lied write
//!    ([`cryo_cells::vfs::crash_lose_unsynced`]) and/or flip one byte of
//!    one committed checkpoint at rest.
//! 4. **Heal + verify.** Reopen the store — the self-healing scrub
//!    classifies and quarantines the damage — then prove the global
//!    invariants of DESIGN.md §15:
//!    - **No wrong bits are ever served.** Every surviving entry loads
//!      byte-identical to the payload its committed envelope carries —
//!      the store never invents, truncates, or silently patches data.
//!      Under a pure-storage schedule this also means byte-identical to
//!      the baseline cell; a composed `tran=` fault may have engaged the
//!      recovery ladder (finer timestep, relaxed gmin), whose divergent
//!      bits are *valid* characterizations, not corruption.
//!    - **Resume always converges.** A faults-off resume reproduces the
//!      baseline library byte for byte under pure-storage schedules; when
//!      the ladder legitimately diverged, every re-characterized cell
//!      still matches the baseline and every resumed cell matches its
//!      committed checkpoint.
//!    - **Re-simulation is bounded by exactly the damaged set.** The
//!      resume's `Resumed` outcomes are exactly the surviving entries;
//!      everything else — and only everything else — re-characterizes.
//!    - **A second resume is free.** One more faults-off run reproduces
//!      the first resume byte for byte with zero simulator invocations.
//!
//! Each drill emits a JSON [`DrillLedger`] so a CI matrix (or an operator
//! reading an incident) sees exactly what was injected, what broke, what
//! healed, and what the recovery cost.

use std::fs;
use std::path::{Path, PathBuf};

use cryo_cells::{topology, vfs, CellNetlist, CharConfig, Characterizer, CheckpointStore};
use cryo_device::{ModelCard, Polarity};
use cryo_spice::fault::{self, FaultPlan};
use cryo_spice::work;
use serde::{Deserialize, Serialize};

/// Deterministic splitmix64 stream — the same generator the fault injector
/// uses, so a drill is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }
}

/// One seeded chaos schedule: which faults to compose, how parallel each
/// phase runs, where the simulated kill lands, and which crash effects to
/// apply between the chaos run and the resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// The generating seed (also the fault plan's seed).
    pub seed: u64,
    /// Canonical `CRYO_FAULTS`-format spec of the composed plan.
    pub spec: String,
    /// Worker count for the chaos run.
    pub jobs_a: usize,
    /// Worker count for the resume run.
    pub jobs_b: usize,
    /// The chaos run characterizes only `cells[..kill_after]` — the
    /// simulated `kill -9` point.
    pub kill_after: usize,
    /// Lose every fsync-lied write after the chaos run.
    pub fsync_crash: bool,
    /// Flip one byte of one committed entry at rest after the crash.
    pub at_rest_flip: bool,
}

impl ChaosSchedule {
    /// Generate the schedule for a seed over a drill of `n_cells` cells.
    #[must_use]
    pub fn generate(seed: u64, n_cells: usize) -> Self {
        let mut rng = Rng(seed ^ 0x000c_4a05_u64.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut plan = FaultPlan::new(seed);
        let mut parts = vec![format!("seed={seed}")];
        // 1–3 distinct io faults, probabilities high enough to bite a
        // small library but low enough that some writes commit.
        type Arm = fn(&mut FaultPlan, f64);
        let kinds: [(&str, Arm); 6] = [
            ("torn", |p, v| p.io_torn = v),
            ("shortread", |p, v| p.io_short_read = v),
            ("eio", |p, v| p.io_eio = v),
            ("enospc", |p, v| p.io_enospc = v),
            ("renamedrop", |p, v| p.io_rename_drop = v),
            ("fsynclie", |p, v| p.io_fsync_lie = v),
        ];
        let n_faults = 1 + rng.below(3) as usize;
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < n_faults {
            let k = rng.below(kinds.len() as u64) as usize;
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        picked.sort_unstable(); // canonical spec order
        for k in picked {
            let p = 0.2 + 0.15 * rng.below(4) as f64; // 0.20/0.35/0.50/0.65
            (kinds[k].1)(&mut plan, p);
            parts.push(format!("io={}:{p}", kinds[k].0));
        }
        // Compose with the legacy families sometimes: transient solver
        // faults exercise the retry ladder *under* storage chaos, and the
        // pre-vfs torn-cache site must keep composing with the new one.
        if rng.chance(0.3) {
            plan.tran_no_convergence = 0.02;
            parts.push("tran=0.02".to_string());
        }
        if rng.chance(0.3) {
            plan.cache_corruption = 0.25;
            parts.push("cache=0.25".to_string());
        }
        ChaosSchedule {
            seed,
            spec: parts.join(","),
            jobs_a: if rng.chance(0.5) { 8 } else { 1 },
            jobs_b: if rng.chance(0.5) { 8 } else { 1 },
            kill_after: 1 + rng.below(n_cells as u64) as usize,
            fsync_crash: rng.chance(0.5),
            at_rest_flip: rng.chance(0.35),
        }
    }
}

/// The JSON evidence one drill leaves behind: what was injected, what the
/// scrub found, what recovery cost, and whether every invariant held.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrillLedger {
    /// The drill's seed.
    pub seed: u64,
    /// The composed fault spec.
    pub spec: String,
    /// Chaos-run worker count.
    pub jobs_a: usize,
    /// Resume-run worker count.
    pub jobs_b: usize,
    /// Simulated kill point (cells characterized in the chaos run).
    pub kill_after: usize,
    /// Whether the fsync-lie crash was applied.
    pub fsync_crash: bool,
    /// Whether an at-rest byte flip was applied.
    pub at_rest_flip: bool,
    /// Acknowledged writes reverted by the simulated crash.
    pub unsynced_lost: usize,
    /// Entries that survived chaos + crash + scrub intact.
    pub survivors: Vec<String>,
    /// Entries the scrub classified as truncation-shaped damage.
    pub scrub_truncated: Vec<String>,
    /// Entries the scrub classified as at-rest bit-rot.
    pub scrub_bit_rot: Vec<String>,
    /// Orphaned atomic-write tmp files the scrub observed.
    pub orphan_tmp: usize,
    /// Resume-run cells restored from checkpoints (must equal
    /// `survivors.len()`).
    pub resumed: usize,
    /// Resume-run cells re-characterized (must equal
    /// `cells - survivors.len()`).
    pub recharacterized: usize,
    /// Whether the resumed library is byte-identical to the fault-free
    /// baseline. `false` only when a composed `tran=` fault engaged the
    /// recovery ladder, whose divergent-but-valid bits were resumed; a
    /// pure-storage drill with `false` here fails outright.
    pub byte_identical: bool,
    /// Whether the second resume reproduced the first with zero simulator
    /// invocations.
    pub converged_zero_sim: bool,
}

impl DrillLedger {
    /// Whether every global invariant held. (`run_drill` returns `Err`
    /// on any violation, so a ledger that exists at all passes unless the
    /// fields were hand-assembled inconsistently.)
    #[must_use]
    pub fn passed(&self) -> bool {
        self.converged_zero_sim && (self.byte_identical || self.spec.contains("tran="))
    }
}

/// The mini cell set a drill characterizes: small enough that a 64-seed
/// matrix runs in test time, diverse enough to cover combinational,
/// sequential, and multi-drive cells (the derating donor path included).
#[must_use]
pub fn drill_cells() -> Vec<CellNetlist> {
    vec![
        topology::inverter(1),
        topology::inverter(2),
        topology::nand(2, 1),
        topology::nor(2, 1),
        topology::xor2(1),
        topology::dff(1),
    ]
}

/// Run one seeded drill under `cache_dir` (a scratch directory the drill
/// owns; each seed namespaces its own store).
///
/// # Errors
///
/// A description of the first violated invariant. Infrastructure failures
/// (a store that cannot open on a healthy disk) are also errors — a drill
/// must never silently skip its assertions.
#[allow(clippy::too_many_lines)] // one linear drill script
pub fn run_drill(cache_dir: &Path, seed: u64) -> std::result::Result<DrillLedger, String> {
    let cells = drill_cells();
    let schedule = ChaosSchedule::generate(seed, cells.len());
    let nfet = ModelCard::nominal(Polarity::N);
    let pfet = ModelCard::nominal(Polarity::P);
    let cfg = |jobs: usize| {
        let mut c = CharConfig::fast(300.0);
        c.jobs = jobs;
        c
    };
    let store_key = format!("{seed:016x}");
    let open = || {
        CheckpointStore::open(cache_dir, "chaos", &store_key)
            .map_err(|e| format!("seed {seed}: store open failed on a healthy disk: {e}"))
    };

    // 1. Baseline: ground truth, no store, no faults.
    let baseline_engine = Characterizer::new(&nfet, &pfet, cfg(1));
    let (baseline_lib, _) = baseline_engine.characterize_library_robust("chaos", &cells, None);
    let baseline_bytes = serde_json::to_string(&baseline_lib).expect("libraries serialize");
    let baseline_cell = |name: &str| {
        baseline_lib
            .cells()
            .iter()
            .find(|c| c.name == name)
            .map(|c| serde_json::to_string(c).expect("cells serialize"))
    };

    // 2. Chaos run over the kill prefix, composed faults armed.
    {
        let store = open()?;
        let plan = FaultPlan::parse_spec(&schedule.spec)
            .expect("generated specs are well-formed")
            .expect("generated specs are non-empty");
        let _guard = fault::install_guard(plan);
        let engine = Characterizer::new(&nfet, &pfet, cfg(schedule.jobs_a));
        let _ = engine.characterize_library_robust(
            "chaos",
            &cells[..schedule.kill_after],
            Some(&store),
        );
    }

    // 3. Crash effects, scoped to this drill's store: whichever branch
    // runs, no fsync lie against this store survives into the resume, and
    // a concurrently running drill's ledger entries are never touched.
    let store_root = cache_dir
        .join("checkpoints")
        .join(format!("chaos_{store_key}"));
    let unsynced_lost = if schedule.fsync_crash {
        vfs::crash_lose_unsynced_under(&store_root)
    } else {
        let _ = vfs::commit_unsynced_under(&store_root);
        0
    };
    if schedule.at_rest_flip {
        flip_committed_byte(cache_dir, &store_key, seed);
    }

    // A composed transient-solver fault may have engaged the recovery
    // ladder (finer timestep, relaxed gmin) for some cell — divergent but
    // *valid* bits. Only then is baseline inequality tolerable.
    let tran_composed = schedule.spec.contains("tran=");

    // What is actually on disk after chaos + crash: the committed payload
    // (envelope stripped) per entry. "No wrong bits served" means served
    // bytes equal these exactly — the store never invents data.
    let mut committed: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    for e in fs::read_dir(&store_root).into_iter().flatten().flatten() {
        let p = e.path();
        if p.extension().is_none_or(|x| x != "ckpt") {
            continue;
        }
        if let (Some(stem), Ok(text)) = (
            p.file_stem().and_then(|s| s.to_str()),
            fs::read_to_string(&p),
        ) {
            if let Some((_, payload)) = text.split_once('\n') {
                committed.insert(stem.to_string(), payload.to_string());
            }
        }
    }

    // 4. Heal: the scrub at open classifies and quarantines every damaged
    // entry. What survives must serve exactly its committed payload.
    let store = open()?;
    let scrub = store.scrub_report().clone();
    let survivors = store.entries();
    let mut served_by_name: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    for name in &survivors {
        let served = store
            .load(name)
            .ok_or_else(|| format!("seed {seed}: {name} listed as intact but failed to load"))?;
        let served_bytes = serde_json::to_string(&served).expect("cells serialize");
        match committed.get(name) {
            Some(payload) if *payload == served_bytes => {}
            Some(_) => {
                return Err(format!(
                    "seed {seed}: WRONG BITS SERVED for {name}: served bytes \
                     differ from the committed checkpoint payload"
                ));
            }
            None => {
                return Err(format!(
                    "seed {seed}: {name} served but never committed to disk"
                ));
            }
        }
        if !tran_composed && baseline_cell(name).as_deref() != Some(served_bytes.as_str()) {
            return Err(format!(
                "seed {seed}: WRONG BITS SERVED for {name}: pure-storage faults \
                 must never change characterization results"
            ));
        }
        served_by_name.insert(name.clone(), served_bytes);
    }

    // 5. Resume, faults off: must converge with re-simulation bounded by
    // exactly the non-surviving set.
    let engine_b = Characterizer::new(&nfet, &pfet, cfg(schedule.jobs_b));
    let (lib_b, report_b) = engine_b.characterize_library_robust("chaos", &cells, Some(&store));
    let lib_b_bytes = serde_json::to_string(&lib_b).expect("libraries serialize");
    let mut resumed_names: Vec<String> = report_b
        .with_status(cryo_cells::CellStatus::Resumed)
        .iter()
        .map(|o| o.name.clone())
        .collect();
    resumed_names.sort_unstable();
    if resumed_names != survivors {
        return Err(format!(
            "seed {seed}: re-simulation not bounded by the damaged set: \
             survivors {survivors:?} but resumed {resumed_names:?}"
        ));
    }
    let byte_identical = lib_b_bytes == baseline_bytes;
    if !byte_identical {
        if !tran_composed {
            return Err(format!(
                "seed {seed}: resume did not converge to the baseline bytes"
            ));
        }
        // Ladder divergence is only acceptable cell-by-cell: resumed
        // cells must carry exactly their committed bits, and everything
        // re-characterized (faults are off now) must match the baseline.
        for cell in lib_b.cells() {
            let got = serde_json::to_string(cell).expect("cells serialize");
            let want = served_by_name
                .get(&cell.name)
                .cloned()
                .or_else(|| baseline_cell(&cell.name));
            if want.as_deref() != Some(got.as_str()) {
                return Err(format!(
                    "seed {seed}: resumed library cell {} matches neither its \
                     committed checkpoint nor the baseline",
                    cell.name
                ));
            }
        }
    }
    let recharacterized = cells.len() - resumed_names.len();

    // 6. Second resume: fully checkpointed now, so zero simulator work and
    // byte-stable output.
    let store_c = open()?;
    let _ = work::take();
    let engine_c = Characterizer::new(&nfet, &pfet, cfg(1));
    let (lib_c, report_c) = engine_c.characterize_library_robust("chaos", &cells, Some(&store_c));
    let sims = work::get();
    let converged_zero_sim = sims.dc == 0
        && sims.tran == 0
        && report_c.resumed_count() == cells.len()
        && serde_json::to_string(&lib_c).expect("libraries serialize") == lib_b_bytes;
    if !converged_zero_sim {
        return Err(format!(
            "seed {seed}: second resume was not free: {} dc, {} tran, {}/{} resumed",
            sims.dc,
            sims.tran,
            report_c.resumed_count(),
            cells.len()
        ));
    }

    Ok(DrillLedger {
        seed,
        spec: schedule.spec,
        jobs_a: schedule.jobs_a,
        jobs_b: schedule.jobs_b,
        kill_after: schedule.kill_after,
        fsync_crash: schedule.fsync_crash,
        at_rest_flip: schedule.at_rest_flip,
        unsynced_lost,
        survivors,
        scrub_truncated: scrub.truncated,
        scrub_bit_rot: scrub.bit_rot,
        orphan_tmp: scrub.orphan_tmp,
        resumed: resumed_names.len(),
        recharacterized,
        byte_identical,
        converged_zero_sim,
    })
}

/// Flip one seed-chosen byte of one seed-chosen committed entry — at-rest
/// corruption no write path ever sees. A store with no committed entries
/// is a no-op (the chaos run may have torn or shed every write).
fn flip_committed_byte(cache_dir: &Path, store_key: &str, seed: u64) {
    let dir = cache_dir
        .join("checkpoints")
        .join(format!("chaos_{store_key}"));
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return;
    }
    let mut rng = Rng(seed ^ 0xf11b);
    let path = &entries[rng.below(entries.len() as u64) as usize];
    let Ok(mut bytes) = fs::read(path) else {
        return;
    };
    if bytes.is_empty() {
        return;
    }
    let at = rng.below(bytes.len() as u64) as usize;
    bytes[at] ^= 0x01;
    let _ = fs::write(path, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_diverse() {
        let a = ChaosSchedule::generate(7, 6);
        let b = ChaosSchedule::generate(7, 6);
        assert_eq!(a, b, "same seed, same schedule");
        let c = ChaosSchedule::generate(8, 6);
        assert_ne!(a.spec, c.spec, "different seeds differ somewhere");
        assert!(a.kill_after >= 1 && a.kill_after <= 6);
        assert!(a.spec.contains("io="), "every schedule arms storage faults");
        // Across a modest seed range, every io kind and both crash effects
        // must appear — otherwise the matrix silently under-covers.
        let mut kinds_seen = std::collections::HashSet::new();
        let (mut crashes, mut flips) = (0, 0);
        for seed in 0..64 {
            let s = ChaosSchedule::generate(seed, 6);
            for kind in [
                "torn",
                "shortread",
                "eio",
                "enospc",
                "renamedrop",
                "fsynclie",
            ] {
                if s.spec.contains(&format!("io={kind}:")) {
                    kinds_seen.insert(kind);
                }
            }
            crashes += usize::from(s.fsync_crash);
            flips += usize::from(s.at_rest_flip);
        }
        assert_eq!(kinds_seen.len(), 6, "all io kinds covered: {kinds_seen:?}");
        assert!(crashes > 8 && crashes < 56, "crash mix: {crashes}");
        assert!(flips > 4, "flip mix: {flips}");
    }

    #[test]
    fn generated_specs_parse_strictly() {
        for seed in 0..128 {
            let s = ChaosSchedule::generate(seed, 6);
            let plan = FaultPlan::parse_spec(&s.spec)
                .unwrap_or_else(|e| panic!("seed {seed}: spec {:?} rejected: {e}", s.spec))
                .expect("non-empty");
            assert!(plan.is_armed(), "seed {seed}: plan must arm something");
            assert_eq!(plan.seed, seed);
        }
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let l = DrillLedger {
            seed: 42,
            spec: "seed=42,io=torn:0.5".into(),
            jobs_a: 8,
            jobs_b: 1,
            kill_after: 4,
            fsync_crash: true,
            at_rest_flip: false,
            unsynced_lost: 2,
            survivors: vec!["INVx1".into()],
            scrub_truncated: vec!["NAND2x1".into()],
            scrub_bit_rot: vec![],
            orphan_tmp: 1,
            resumed: 1,
            recharacterized: 5,
            byte_identical: true,
            converged_zero_sim: true,
        };
        assert!(l.passed());
        let json = serde_json::to_string(&l).unwrap();
        let back: DrillLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
