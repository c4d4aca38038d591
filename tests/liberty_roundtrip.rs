//! Characterized libraries survive the Liberty text format and the JSON
//! cache losslessly enough for signoff: every timing/power lookup agrees.

use cryo_soc::cells::{cache, topology, CharConfig, Characterizer};
use cryo_soc::device::{ModelCard, Polarity};
use cryo_soc::liberty::format::{parse_library, write_library};

fn mini_library() -> cryo_soc::liberty::Library {
    let engine = Characterizer::new(
        &ModelCard::nominal(Polarity::N),
        &ModelCard::nominal(Polarity::P),
        CharConfig::fast(300.0),
    );
    let cells = vec![
        topology::inverter(1),
        topology::nand(2, 2),
        topology::xor2(1),
        topology::dff(1),
    ];
    engine.characterize_library("rt300", &cells).unwrap()
}

#[test]
fn liberty_text_round_trip_preserves_signoff_lookups() {
    let lib = mini_library();
    let text = write_library(&lib);
    let back = parse_library(&text).expect("parses");
    assert_eq!(back.len(), lib.len());
    for cell in lib.cells() {
        let rt = back.cell(&cell.name).expect("cell survives");
        assert_eq!(rt.arcs.len(), cell.arcs.len(), "{}", cell.name);
        assert_eq!(rt.pins.len(), cell.pins.len());
        assert_eq!(rt.is_sequential(), cell.is_sequential());
        for a in &cell.arcs {
            // The writer groups arcs under pins, so order may differ; match
            // by (related_pin, pin, kind).
            let b = rt
                .arcs
                .iter()
                .find(|b| b.related_pin == a.related_pin && b.pin == a.pin && b.kind == a.kind)
                .unwrap_or_else(|| panic!("{}: arc {}->{} lost", cell.name, a.related_pin, a.pin));
            for (slew, load) in [(5e-12, 1e-15), (20e-12, 5e-15), (80e-12, 12e-15)] {
                let da = a.worst_delay(slew, load);
                let db = b.worst_delay(slew, load);
                assert!(
                    (da - db).abs() < 1e-6 * da.abs().max(1e-15),
                    "{} {}->{}: {da:e} vs {db:e}",
                    cell.name,
                    a.related_pin,
                    a.pin
                );
            }
        }
        // Leakage and pin caps survive within text precision.
        assert!(
            (rt.average_leakage() - cell.average_leakage()).abs()
                < 1e-3 * cell.average_leakage().abs() + 1e-15
        );
        for pin in cell.input_pins() {
            let rp = rt.pin(&pin.name).unwrap();
            assert!((rp.capacitance - pin.capacitance).abs() < 1e-18);
        }
    }
}

#[test]
fn json_cache_round_trip_is_lossless() {
    let lib = mini_library();
    let dir = std::env::temp_dir().join("cryo_soc_cache_it");
    let _ = std::fs::remove_dir_all(&dir);
    cache::store(&dir, &lib.name, "itkey", &lib).unwrap();
    let back = cache::load(&dir, &lib.name, "itkey").expect("cache hit");
    assert_eq!(back.len(), lib.len());
    for cell in lib.cells() {
        let rt = back.cell(&cell.name).unwrap();
        assert_eq!(rt.name, cell.name);
        assert_eq!(rt.arcs.len(), cell.arcs.len());
        for ((sa, wa), (sb, wb)) in cell.leakage_states.iter().zip(&rt.leakage_states) {
            assert_eq!(sa, sb);
            assert!((wa - wb).abs() <= 1e-14 * wa.abs().max(1e-30));
        }
        // Table values survive to within a JSON float round trip (last ulp).
        for (a, b) in cell.arcs.iter().zip(&rt.arcs) {
            for (va, vb) in a.cell_rise.values().iter().zip(b.cell_rise.values()) {
                assert!(
                    (va - vb).abs() <= 1e-15 * va.abs().max(1e-30),
                    "{va:e} vs {vb:e}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn functions_survive_and_still_evaluate() {
    let lib = mini_library();
    let back = parse_library(&write_library(&lib)).unwrap();
    let xor = back.cell("XOR2x1").unwrap();
    let f = xor.pin("Y").unwrap().function.clone().expect("function");
    assert!(!f.eval(0b00));
    assert!(f.eval(0b01));
    assert!(f.eval(0b10));
    assert!(!f.eval(0b11));
}

// ----------------------------------------------------------------------
// Degraded libraries: missing cells and missing arcs must survive the
// text format and still reach a complete, provenance-flagged STA report.
// ----------------------------------------------------------------------

mod degraded {
    use cryo_soc::cells::{topology, CharConfig, Characterizer};
    use cryo_soc::device::{ModelCard, Polarity};
    use cryo_soc::liberty::format::{parse_library, write_library};
    use cryo_soc::liberty::{ArcKind, Library};
    use cryo_soc::netlist::{Design, DesignBuilder};
    use cryo_soc::sta::{analyze, DegradeCause, MissingArcPolicy, StaConfig, StaError};

    /// INVx1/INVx2/NAND2x2/DFFx1, then degrade: drop INVx2 entirely
    /// (failed cell) and strip NAND2x2's propagation arcs (timing tables
    /// lost; the cell body, pins, and power data survive).
    fn degraded_library() -> Library {
        let engine = Characterizer::new(
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
            CharConfig::fast(300.0),
        );
        let cells = vec![
            topology::inverter(1),
            topology::inverter(2),
            topology::nand(2, 2),
            topology::dff(1),
        ];
        let full = engine.characterize_library("deg300", &cells).unwrap();
        let mut lib = Library::new(&full.name, full.temperature, full.vdd);
        for cell in full.cells() {
            if cell.name == "INVx2" {
                continue; // the failed cell
            }
            let mut c = cell.clone();
            if c.name == "NAND2x2" {
                let before = c.arcs.len();
                c.arcs.retain(|a| a.kind != ArcKind::Combinational);
                assert!(c.arcs.len() < before, "NAND2x2 had propagation arcs");
            }
            lib.add_cell(c);
        }
        lib
    }

    fn design() -> Design {
        let mut b = DesignBuilder::new("deg_dut");
        let clk = b.clock_input("clk");
        let a = b.input("a");
        let q0 = b.dff(a, clk, 1);
        let n1 = b.inv(q0, 2); // INVx2: missing cell
        let n2 = b.inv(n1, 1);
        let n3 = b.nand2(n2, q0, 2); // NAND2x2: input A lost its arc
        let q1 = b.dff(n3, clk, 1);
        b.mark_output(q1);
        b.finish()
    }

    #[test]
    fn degraded_library_survives_text_round_trip_into_sta() {
        let lib = degraded_library();
        let d = design();
        let cfg = StaConfig {
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.25 },
            ..StaConfig::default()
        };

        let direct = analyze(&d, &lib, &cfg).expect("degraded STA completes");
        assert!(direct.is_degraded());
        let causes: Vec<DegradeCause> = direct.degraded_arcs.iter().map(|a| a.cause).collect();
        assert!(causes.contains(&DegradeCause::MissingCell), "{causes:?}");
        assert!(causes.contains(&DegradeCause::MissingArc), "{causes:?}");

        // Write → parse → STA: the same missing cell and missing arc, the
        // same stand-in provenance, and signoff numbers within the text
        // format's quantization error.
        let back = parse_library(&write_library(&lib)).expect("degraded lib parses");
        assert!(back.cell("INVx2").is_err(), "missingness survives");
        let rt = analyze(&d, &back, &cfg).expect("round-tripped STA completes");
        assert_eq!(rt.degraded_arcs.len(), direct.degraded_arcs.len());
        for (a, b) in direct.degraded_arcs.iter().zip(&rt.degraded_arcs) {
            assert_eq!(
                (&a.instance, &a.pin, &a.cause),
                (&b.instance, &b.pin, &b.cause)
            );
            assert_eq!(
                a.resolution, b.resolution,
                "{}: provenance drifted",
                a.instance
            );
            assert!(
                (a.assumed_delay - b.assumed_delay).abs() < 1e-6 * a.assumed_delay.abs(),
                "{}: {} vs {}",
                a.instance,
                a.assumed_delay,
                b.assumed_delay
            );
        }
        let rel = (rt.critical_path_delay - direct.critical_path_delay).abs()
            / direct.critical_path_delay;
        assert!(
            rel < 1e-6,
            "critical path drifted {rel:e} across the format"
        );

        // Fail policy still refuses the same library.
        let strict = StaConfig::default();
        assert!(matches!(
            analyze(&d, &back, &strict),
            Err(StaError::UnmappedCell { .. })
        ));
    }
}
