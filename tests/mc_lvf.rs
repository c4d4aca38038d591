//! The Monte-Carlo → LVF characterization contract, end to end: per-cell
//! die sweeps are byte-deterministic across worker counts (with and
//! without an active fault plan), a killed sweep resumes from its moment
//! checkpoints with counter-proven zero re-simulation, the emitted
//! Liberty LVF text matches a golden snapshot and survives a parse
//! round-trip, and the cryogenic sigma-ordering invariant (10 K relative
//! sigma >= 300 K) holds on the golden cells.
//!
//! To regenerate the golden after an intentional change:
//!
//! ```text
//! CRYO_BLESS=1 cargo test --test mc_lvf
//! ```

use std::path::PathBuf;

use cryo_soc::cells::{topology, CellNetlist, CharConfig, CheckpointStore};
use cryo_soc::device::{ModelCard, Polarity};
use cryo_soc::liberty::audit::audit_lvf_cross_corner;
use cryo_soc::liberty::format::{parse_library, write_library};
use cryo_soc::lvf::{mc_cache_key, McCharacterizer, McConfig};
use cryo_soc::spice::{fault, work, FaultPlan};

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryo_soc_mc_lvf_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A grid small enough for a multi-die sweep in a debug-build test, big
/// enough that every LVF table still has a real slew/load surface.
fn tiny_cfg(temp: f64, jobs: usize) -> CharConfig {
    let mut cfg = CharConfig::fast(temp);
    cfg.slews = vec![5e-12, 40e-12];
    cfg.loads_x1 = vec![0.8e-15, 6.4e-15];
    cfg.steps = 110;
    cfg.jobs = jobs;
    cfg
}

/// MC engine over the nominal cards: explicit `jobs` beats any ambient
/// `CRYO_JOBS`, so these tests are environment-independent.
fn engine(temp: f64, dies: usize, jobs: usize) -> McCharacterizer {
    McCharacterizer::new(
        &ModelCard::nominal(Polarity::N),
        &ModelCard::nominal(Polarity::P),
        McConfig::new(dies, 0xC0FFEE, tiny_cfg(temp, jobs)),
    )
}

/// Mixed drives and families so work-stealing actually interleaves cells
/// at 8 workers.
fn cell_set() -> Vec<CellNetlist> {
    vec![
        topology::inverter(1),
        topology::inverter(4),
        topology::nand(2, 1),
        topology::nor(2, 1),
    ]
}

#[test]
fn mc_libraries_are_byte_identical_across_job_counts() {
    let cells = cell_set();
    let run = |jobs: usize| {
        let (lib, rep) = engine(300.0, 4, jobs).characterize_library("mc", &cells, None);
        assert!(
            rep.failed.is_empty(),
            "clean run must not fail cells: {:?}",
            rep.failed
        );
        (
            serde_json::to_string(&lib).unwrap(),
            write_library(&lib),
            rep,
        )
    };
    let (json1, lib1, rep1) = run(1);
    let (json8, lib8, rep8) = run(8);
    assert_eq!(
        json1, json8,
        "jobs=1 and jobs=8 must serialize to identical bytes"
    );
    assert_eq!(
        lib1, lib8,
        "emitted Liberty LVF text must match byte for byte"
    );
    assert_eq!(rep1.cells, rep8.cells, "pooled moments must match exactly");
}

#[test]
fn mc_byte_identity_survives_an_active_fault_plan() {
    // A recoverable probabilistic plan: each die context may absorb one
    // injected transient failure and retry up the recovery ladder. The
    // fault schedule is a function of (plan, context) alone, so the die
    // populations — and the LVF tables they pool into — must not depend
    // on the worker count.
    let plan = FaultPlan {
        tran_no_convergence: 0.25,
        max_injections: Some(1),
        ..FaultPlan::new(7)
    };
    let cells = cell_set();
    let run = |jobs: usize| {
        let _g = fault::install_guard(plan.clone());
        let (lib, rep) = engine(300.0, 3, jobs).characterize_library("mc_faulted", &cells, None);
        assert!(
            rep.failed.is_empty(),
            "recoverable faults must not fail cells"
        );
        (serde_json::to_string(&lib).unwrap(), rep)
    };
    let (lib1, rep1) = run(1);
    let (lib8, rep8) = run(8);
    assert_eq!(
        lib1, lib8,
        "fault injection must not break byte-identity across job counts"
    );
    assert_eq!(rep1.cells, rep8.cells);
}

#[test]
fn killed_mc_run_resumes_with_zero_resimulation() {
    let dir = scratch("kill_resume");
    let nfet = ModelCard::nominal(Polarity::N);
    let pfet = ModelCard::nominal(Polarity::P);
    let cells = cell_set();
    let mc = |jobs: usize| {
        McCharacterizer::new(
            &nfet,
            &pfet,
            McConfig::new(4, 0xC0FFEE, tiny_cfg(300.0, jobs)),
        )
    };
    let key = mc_cache_key(&nfet, &pfet, mc(1).config(), "mc_lvf_test").unwrap();
    let store = CheckpointStore::open(&dir, "mc300", &key).unwrap();

    // "Killed" parallel run: only the first two cells were committed
    // before the interrupt.
    let (_, partial) = mc(8).characterize_library("mc", &cells[..2], Some(&store));
    assert_eq!(partial.simulated.len(), 2);

    // Resumed serial run over the full set: the committed cells restore
    // from their moment checkpoints, only the remainder simulates.
    let (resumed, rep) = mc(1).characterize_library("mc", &cells, Some(&store));
    assert_eq!(rep.restored, vec!["INVx1", "INVx4"]);
    assert_eq!(rep.simulated, vec!["NAND2x1", "NOR2x1"]);

    // Third run over a warm store: everything restores and the simulator
    // invocation counters prove zero solves happened.
    let _ = work::take();
    let (rerun, rep) = mc(1).characterize_library("mc", &cells, Some(&store));
    assert_eq!(rep.restored.len(), cells.len());
    assert!(rep.simulated.is_empty());
    let counts = work::get();
    assert_eq!(
        (counts.dc, counts.tran),
        (0, 0),
        "a fully checkpointed sweep must not invoke the simulator at all"
    );

    // And the resumed artifacts are byte-identical to a cold run.
    let (cold, _) = mc(1).characterize_library("mc", &cells, None);
    let want = serde_json::to_string(&cold).unwrap();
    assert_eq!(serde_json::to_string(&resumed).unwrap(), want);
    assert_eq!(serde_json::to_string(&rerun).unwrap(), want);
}

#[test]
fn emitted_lvf_matches_golden_and_round_trips() {
    let cells = cell_set();
    let (lib, rep) = engine(300.0, 4, 1).characterize_library("mc_golden", &cells, None);
    assert!(rep.failed.is_empty());
    let text = write_library(&lib);

    // Round-trip: the LVF sibling tables survive emission and re-parse.
    let parsed = parse_library(&text).expect("emitted LVF re-parses");
    assert_eq!(parsed.cells().len(), lib.cells().len());
    for cell in lib.cells() {
        let back = parsed.cell(&cell.name).expect("cell survives round-trip");
        for (a, b) in cell.arcs.iter().zip(&back.arcs) {
            assert_eq!(
                a.sigma.is_some(),
                b.sigma.is_some(),
                "{}: LVF sigma tables must survive the round-trip",
                cell.name
            );
        }
    }

    // Golden snapshot: characterization is deterministic end to end
    // (seeded die sampling, hand-rolled solvers, fixed float formatting),
    // so the emitted text is a platform-independent constant.
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mc_lvf.lib");
    if std::env::var_os("CRYO_BLESS").is_some() {
        std::fs::write(&golden, &text).expect("bless golden LVF");
        eprintln!("blessed {}", golden.display());
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("tests/golden/mc_lvf.lib (CRYO_BLESS=1 regenerates)");
    assert_eq!(
        want, text,
        "emitted LVF drifted from its golden (CRYO_BLESS=1 regenerates after an intentional change)"
    );
}

#[test]
fn cryogenic_relative_sigma_dominates_the_warm_corner() {
    // The paper's band-tail physics as a signoff invariant: threshold
    // variation compounds when cooled, so relative delay sigma at 10 K
    // must not fall below its 300 K value — per cell (with noise
    // tolerance) and strictly on the library-pooled ratio.
    let cells = cell_set();
    let (warm, wrep) = engine(300.0, 8, 1).characterize_library("warm", &cells, None);
    let (cold, crep) = engine(10.0, 8, 1).characterize_library("cold", &cells, None);
    assert!(wrep.failed.is_empty() && crep.failed.is_empty());
    let audit = audit_lvf_cross_corner("mc_lvf", &warm, &cold);
    assert!(
        audit.is_clean(),
        "sigma ordering must hold at 10 K: {}",
        audit.summary()
    );
}
