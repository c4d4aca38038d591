//! Failure injection: every engine reports structured errors instead of
//! panicking or hanging when handed defective inputs, and the
//! characterization flow degrades gracefully under the deterministic
//! fault-injection harness (retry ladder, sibling derating, checkpoint
//! quarantine, resume without re-simulation).

use std::collections::BTreeSet;

use cryo_soc::cells::{cache, topology, CellStatus, CharConfig, Characterizer, CheckpointStore};
use cryo_soc::device::{FinFet, ModelCard, Polarity};
use cryo_soc::liberty::{LibertyError, Library, Lut2};
use cryo_soc::netlist::{build_soc, DesignBuilder, NetlistError, SocConfig};
use cryo_soc::power::{analyze_power, ActivityProfile, PowerConfig};
use cryo_soc::riscv::asm::assemble;
use cryo_soc::riscv::cpu::Cpu;
use cryo_soc::riscv::RiscvError;
use cryo_soc::spice::{
    dc_operating_point, fault, transient, work, Circuit, FaultPlan, Source, SpiceError, TranConfig,
    GROUND,
};
use cryo_soc::sta::{analyze, StaConfig, StaError};
use proptest::prelude::*;

#[test]
fn conflicting_ideal_sources_are_singular_or_unsolvable() {
    // Two ideal voltage sources forcing different values onto one node.
    let mut c = Circuit::new();
    let n = c.node("n");
    c.vsource("V1", n, GROUND, Source::dc(1.0));
    c.vsource("V2", n, GROUND, Source::dc(2.0));
    c.resistor("R", n, GROUND, 1e3);
    let r = dc_operating_point(&c);
    assert!(
        matches!(
            r,
            Err(SpiceError::SingularMatrix { .. }) | Err(SpiceError::NoConvergence { .. })
        ),
        "got {r:?}"
    );
}

#[test]
fn empty_circuit_is_rejected_cleanly() {
    let c = Circuit::new();
    assert!(matches!(
        dc_operating_point(&c),
        Err(SpiceError::EmptyCircuit)
    ));
}

#[test]
fn combinational_loop_is_detected_by_sta() {
    // Ring of two inverters with no register: a combinational loop.
    let mut lib = Library::new("loop_lib", 300.0, 0.7);
    let inv_fn = cryo_soc::liberty::LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
    lib.add_cell(cryo_soc::liberty::Cell {
        name: "INVx1".into(),
        area: 0.05,
        pins: vec![
            cryo_soc::liberty::Pin::input("A", 1e-15),
            cryo_soc::liberty::Pin::output("Y", inv_fn),
        ],
        arcs: vec![cryo_soc::liberty::TimingArc {
            related_pin: "A".into(),
            pin: "Y".into(),
            kind: cryo_soc::liberty::ArcKind::Combinational,
            sense: cryo_soc::liberty::TimingSense::NegativeUnate,
            cell_rise: Lut2::constant(10e-12),
            cell_fall: Lut2::constant(10e-12),
            rise_transition: Lut2::constant(5e-12),
            fall_transition: Lut2::constant(5e-12),
            sigma: None,
        }],
        power_arcs: vec![],
        leakage_states: vec![(0, 1e-9)],
        ff: None,
        drive: 1,
    });
    let mut b = DesignBuilder::new("ring");
    let fb = b.net("feedback");
    let y1 = b.inv(fb, 1);
    let y2 = b.inv(y1, 1);
    b.alias_with_buffer(y2, fb); // BUFx2 closes the loop
    b.mark_output(y2);
    // Library lacks BUFx2 -> unmapped-cell error first; add it.
    let buf_fn = cryo_soc::liberty::LogicFunction::from_eval(&["A"], |bits| bits & 1 != 0);
    let mut buf = lib.cell("INVx1").unwrap().clone();
    buf.name = "BUFx2".into();
    buf.pins[1].function = Some(buf_fn);
    lib.add_cell(buf);
    let design = b.finish();
    let err = analyze(&design, &lib, &StaConfig::default()).unwrap_err();
    assert!(matches!(err, StaError::CombinationalLoop { .. }), "{err}");
}

#[test]
fn unmapped_cell_is_reported_by_netlist_check() {
    let mut b = DesignBuilder::new("bad");
    let x = b.input("x");
    let _ = b.gate("FANTASYx9", &[x]);
    let design = b.finish();
    let lib = Library::new("empty", 300.0, 0.7);
    assert!(matches!(
        design.check(&lib),
        Err(NetlistError::UnmappedCell { .. })
    ));
}

#[test]
fn malformed_tables_are_rejected() {
    assert!(matches!(
        Lut2::new(vec![2.0, 1.0], vec![1.0], vec![0.0, 0.0]),
        Err(LibertyError::MalformedTable { .. })
    ));
}

#[test]
fn cpu_faults_on_out_of_range_access() {
    let program = assemble(
        "li a0, 0x7fffffff
         slli a0, a0, 8
         ld a1, 0(a0)
         ecall",
    )
    .unwrap();
    let mut cpu = Cpu::new();
    cpu.load_program(&program);
    let err = cpu.run(100).unwrap_err();
    assert!(matches!(err, RiscvError::MemoryFault { .. }), "{err}");
}

#[test]
fn cpu_faults_on_illegal_instruction() {
    let program = assemble("nop\necall").unwrap();
    let mut cpu = Cpu::new();
    cpu.load_program(&program);
    // Overwrite the nop with an undecodable word.
    cpu.write_mem(0x1000, &0xffff_ffffu32.to_le_bytes())
        .unwrap();
    let err = cpu.run(10).unwrap_err();
    assert!(
        matches!(err, RiscvError::IllegalInstruction { .. }),
        "{err}"
    );
}

#[test]
fn assembler_reports_line_numbers() {
    let err = assemble("nop\nnop\nbogus_mnemonic a0").unwrap_err();
    match err {
        RiscvError::Asm { line, .. } => assert_eq!(line, 3),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn infinite_loop_hits_budget_not_hang() {
    let program = assemble("spin: j spin").unwrap();
    let mut cpu = Cpu::new();
    cpu.load_program(&program);
    assert!(matches!(
        cpu.run(10_000),
        Err(RiscvError::Timeout { executed: 10_000 })
    ));
}

// ---------------------------------------------------------------------------
// Deterministic fault injection: one test per fault kind, then checkpoint /
// resume, then the full-flow graceful-degradation acceptance test.
// ---------------------------------------------------------------------------

/// A small solvable circuit (resistor divider) for solver-fault tests.
fn divider() -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    let m = c.node("m");
    c.vsource("V1", a, GROUND, Source::dc(1.0));
    c.resistor("R1", a, m, 1e3);
    c.resistor("R2", m, GROUND, 1e3);
    c
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cryo_soc_fault_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_characterizer() -> Characterizer {
    Characterizer::new(
        &ModelCard::nominal(Polarity::N),
        &ModelCard::nominal(Polarity::P),
        CharConfig::fast(300.0),
    )
}

#[test]
fn injected_dc_nonconvergence_surfaces_as_structured_error() {
    let _g = fault::install_guard(FaultPlan {
        dc_no_convergence: 1.0,
        ..FaultPlan::new(7)
    });
    let r = dc_operating_point(&divider());
    assert!(matches!(r, Err(SpiceError::NoConvergence { .. })), "{r:?}");
    assert!(fault::injection_count() >= 1);
}

#[test]
fn injected_singular_matrix_surfaces_as_structured_error() {
    let _g = fault::install_guard(FaultPlan {
        singular_matrix: 1.0,
        ..FaultPlan::new(7)
    });
    let r = dc_operating_point(&divider());
    assert!(matches!(r, Err(SpiceError::SingularMatrix { .. })), "{r:?}");
}

#[test]
fn injected_nan_device_eval_is_detected_not_propagated() {
    // NaN poisoning only matters where a device model is evaluated.
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let a = c.node("a");
    let y = c.node("y");
    c.vsource("VDD", vdd, GROUND, Source::dc(0.7));
    c.vsource("VA", a, GROUND, Source::dc(0.0));
    let nc = ModelCard::nominal(Polarity::N);
    let pc = ModelCard::nominal(Polarity::P);
    c.finfet("MP", y, a, vdd, FinFet::new(&pc, 300.0, 2));
    c.finfet("MN", y, a, GROUND, FinFet::new(&nc, 300.0, 2));
    let _g = fault::install_guard(FaultPlan {
        nan_device: 1.0,
        ..FaultPlan::new(7)
    });
    let r = dc_operating_point(&c);
    assert!(
        matches!(
            r,
            Err(SpiceError::NonFinite { .. }) | Err(SpiceError::NoConvergence { .. })
        ),
        "NaN must become a structured error, got {r:?}"
    );
}

#[test]
fn injected_tran_nonconvergence_surfaces_as_structured_error() {
    let mut c = divider();
    let m = c.find_node("m").unwrap();
    c.capacitor("C1", m, GROUND, 1e-15);
    let _g = fault::install_guard(FaultPlan {
        tran_no_convergence: 1.0,
        ..FaultPlan::new(7)
    });
    let r = transient(&c, &TranConfig::with_steps(1e-9, 20));
    assert!(matches!(r, Err(SpiceError::NoConvergence { .. })), "{r:?}");
}

#[test]
fn truncated_cache_write_is_quarantined_on_load() {
    let dir = scratch("cache_trunc");
    let mut lib = Library::new("trunc_lib", 300.0, 0.7);
    lib.add_cell({
        let f = cryo_soc::liberty::LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
        cryo_soc::liberty::Cell {
            name: "INVx1".into(),
            area: 0.05,
            pins: vec![
                cryo_soc::liberty::Pin::input("A", 1e-15),
                cryo_soc::liberty::Pin::output("Y", f),
            ],
            arcs: vec![],
            power_arcs: vec![],
            leakage_states: vec![(0, 1e-9)],
            ff: None,
            drive: 1,
        }
    });
    {
        // Crash-during-write simulation: the file lands truncated.
        let _g = fault::install_guard(FaultPlan {
            cache_corruption: 1.0,
            ..FaultPlan::new(7)
        });
        cache::store(&dir, "trunc_lib", "k1", &lib).unwrap();
    }
    assert!(
        cache::load(&dir, "trunc_lib", "k1").is_none(),
        "truncated cache must read as a miss"
    );
    let path = cache::cache_path(&dir, "trunc_lib", "k1");
    let mut corrupt = path.into_os_string();
    corrupt.push(".corrupt");
    assert!(
        std::path::Path::new(&corrupt).exists(),
        "evidence file must survive quarantine"
    );
    // A clean re-store round-trips again.
    cache::store(&dir, "trunc_lib", "k1", &lib).unwrap();
    assert!(cache::load(&dir, "trunc_lib", "k1").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_entry_is_quarantined_and_recomputed() {
    let dir = scratch("ckpt_corrupt");
    let store = CheckpointStore::open(&dir, "mini", "k1").unwrap();
    let engine = fast_characterizer();
    let inv = topology::inverter(1);
    let good = engine.characterize_cell(&inv).unwrap();
    store.store(&good).unwrap();

    // Flip a byte in the payload: the checksum must catch it.
    let path = store.path(&inv.name);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();

    let cells = [inv];
    let (lib, report) = engine.characterize_library_robust("mini", &cells, Some(&store));
    assert!(lib.cell("INVx1").is_ok());
    let outcome = report.outcome("INVx1").unwrap();
    assert_eq!(
        outcome.status,
        CellStatus::Characterized,
        "corrupt checkpoint must be re-characterized, not trusted"
    );
    let mut corrupt = path.into_os_string();
    corrupt.push(".corrupt");
    assert!(
        std::path::Path::new(&corrupt).exists(),
        "corrupt checkpoint entry must be quarantined for inspection"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_resumes_without_resimulating() {
    let dir = scratch("ckpt_resume");
    let store = CheckpointStore::open(&dir, "mini", "k1").unwrap();
    let engine = fast_characterizer();
    let cells = [
        topology::inverter(1),
        topology::inverter(2),
        topology::nand(2, 1),
    ];

    // "Interrupted" first run: only the first cell reached the checkpoint.
    let (_, report) = engine.characterize_library_robust("mini", &cells[..1], Some(&store));
    assert_eq!(
        report.outcome("INVx1").unwrap().status,
        CellStatus::Characterized
    );

    // Restarted run resumes the finished cell and characterizes the rest.
    let (lib, report) = engine.characterize_library_robust("mini", &cells, Some(&store));
    assert_eq!(lib.len(), 3);
    assert_eq!(report.outcome("INVx1").unwrap().status, CellStatus::Resumed);
    assert_eq!(
        report.outcome("INVx2").unwrap().status,
        CellStatus::Characterized
    );
    assert_eq!(
        report.outcome("NAND2x1").unwrap().status,
        CellStatus::Characterized
    );

    // A third run finds everything checkpointed: zero SPICE invocations.
    let _ = work::take();
    let (lib, report) = engine.characterize_library_robust("mini", &cells, Some(&store));
    assert_eq!(lib.len(), 3);
    assert_eq!(report.resumed_count(), 3);
    let counts = work::get();
    assert_eq!(
        (counts.dc, counts.tran),
        (0, 0),
        "a fully-checkpointed run must not re-simulate anything"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full-flow acceptance: a per-cell injected fault exhausts the retry
/// ladder, the victim is derated from its drive-strength sibling, coverage
/// stays above the flow's 95 % floor, and STA + power still sign off.
#[test]
fn flow_survives_injected_cell_fault_with_derating() {
    let design = build_soc(&SocConfig::tiny());
    let used: BTreeSet<&str> = design.instances().iter().map(|i| i.cell.as_str()).collect();
    let names: Vec<String> = used.iter().map(|s| s.to_string()).collect();
    let cells: Vec<_> = names
        .iter()
        .map(|n| topology::by_name(n).unwrap_or_else(|| panic!("unknown cell {n}")))
        .collect();

    // Victim: has a drive-strength sibling in the set, and its name is not
    // a substring of any other cell's (scope matching is substring-based,
    // so e.g. INVx1 would also hit INVx16).
    let family = |n: &str| n.trim_end_matches(|c: char| c.is_ascii_digit()).to_string();
    let victim = names
        .iter()
        .find(|n| {
            n.len() > family(n).len()
                && names.iter().any(|o| o != *n && family(o) == family(n))
                && names.iter().all(|o| o == *n || !o.contains(n.as_str()))
        })
        .expect("tiny SoC uses at least one multi-member drive family")
        .clone();

    let engine = fast_characterizer();
    let report = {
        // Every solve for the victim fails: DC and transient both refuse.
        let _g = fault::install_guard(FaultPlan {
            dc_no_convergence: 1.0,
            tran_no_convergence: 1.0,
            scope: Some(victim.clone()),
            ..FaultPlan::new(42)
        });
        let (lib, report) = engine.characterize_library_robust("soc_faulted", &cells, None);

        // Degradation is graceful: coverage holds, the report names the
        // victim, and the ladder was fully climbed before giving up.
        assert!(
            lib.coverage(&names) >= 0.95,
            "coverage {:.3} fell below the floor",
            lib.coverage(&names)
        );
        let outcome = report.outcome(&victim).unwrap();
        assert_eq!(outcome.status, CellStatus::Derated, "victim: {victim}");
        assert_eq!(
            outcome.attempts,
            engine.config().max_attempts as u32,
            "ladder must be exhausted before derating"
        );
        assert!(outcome.fault.is_some(), "fault cause must be recorded");
        let donor = outcome.derated_from.clone().unwrap();
        assert_eq!(family(&donor), family(&victim), "donor is a drive sibling");

        // Signoff still runs on the degraded library.
        design.check(&lib).expect("netlist maps cleanly");
        let timing = analyze(&design, &lib, &StaConfig::default()).expect("sta");
        assert!(timing.critical_path_delay > 0.0);
        let pcfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, timing.fmax());
        let profile = ActivityProfile::with_default(0.15);
        let power = analyze_power(&design, &lib, &pcfg, &profile, None).expect("power");
        assert!(power.total() > 0.0);
        report
    };
    assert_eq!(report.failed().len(), 0, "nothing was dropped outright");
    assert_eq!(report.derated().len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The DC solve ladder (gmin stepping + source stepping) converges on
    /// randomly perturbed pathological circuits: cross-coupled latches with
    /// mismatched devices, weak leakage ties, and off-nominal supplies.
    #[test]
    fn dc_ladder_converges_on_perturbed_latches(
        nfin_a in 1u32..5,
        nfin_b in 1u32..5,
        r_exp in 4.0f64..9.0,
        vdd in 0.55f64..0.85,
    ) {
        let nc = ModelCard::nominal(Polarity::N);
        let pc = ModelCard::nominal(Polarity::P);
        let mut c = Circuit::new();
        let vddn = c.node("vdd");
        c.vsource("VDD", vddn, GROUND, Source::dc(vdd));
        let q = c.node("q");
        let qb = c.node("qb");
        c.finfet("MP1", q, qb, vddn, FinFet::new(&pc, 300.0, nfin_a));
        c.finfet("MN1", q, qb, GROUND, FinFet::new(&nc, 300.0, nfin_a));
        c.finfet("MP2", qb, q, vddn, FinFet::new(&pc, 300.0, nfin_b));
        c.finfet("MN2", qb, q, GROUND, FinFet::new(&nc, 300.0, nfin_b));
        // Weak tie: breaks metastable symmetry, conditions the matrix badly.
        c.resistor("RW", q, GROUND, 10f64.powf(r_exp));
        let op = dc_operating_point(&c);
        prop_assert!(op.is_ok(), "latch failed to converge: {:?}", op.err());
        let op = op.unwrap();
        for n in [q, qb] {
            let v = op.voltage(n);
            prop_assert!(v.is_finite(), "non-finite node voltage");
            prop_assert!(
                (-0.05..=vdd + 0.05).contains(&v),
                "node voltage {v} outside rails at vdd {vdd}"
            );
        }
    }
}
