//! End-to-end signoff on a scaled-down SoC: characterize exactly the cells
//! the netlist uses, run STA and power at 300 K and 10 K, and assert the
//! paper's qualitative results hold on the miniature.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cryo_soc::cells::cache::content_digest;
use cryo_soc::cells::{topology, CharConfig, Characterizer};
use cryo_soc::device::{ModelCard, Polarity};
use cryo_soc::liberty::Library;
use cryo_soc::netlist::{build_soc, write_verilog, SocConfig};
use cryo_soc::power::{analyze_power, simulate_toggles, ActivityProfile, PowerConfig, PowerReport};
use cryo_soc::spice::{fault, work, FaultPlan};
use cryo_soc::sta::{analyze, EndpointSummary, MissingArcPolicy, StaConfig};
use serde::{Serialize, Value};

/// Characterize only the cells `design` instantiates (keeps the test fast).
fn library_for_design(design: &cryo_soc::netlist::Design, temp: f64) -> Library {
    let used: BTreeSet<&str> = design.instances().iter().map(|i| i.cell.as_str()).collect();
    let cells: Vec<_> = used
        .iter()
        .map(|name| topology::by_name(name).unwrap_or_else(|| panic!("unknown cell {name}")))
        .collect();
    let engine = Characterizer::new(
        &ModelCard::nominal(Polarity::N),
        &ModelCard::nominal(Polarity::P),
        CharConfig::fast(temp),
    );
    engine
        .characterize_library(&format!("soc_mini_{temp}"), &cells)
        .expect("characterization")
}

#[test]
fn tiny_soc_signs_off_at_both_corners() {
    let design = build_soc(&SocConfig::tiny());
    let lib300 = library_for_design(&design, 300.0);
    let lib10 = library_for_design(&design, 10.0);
    design.check(&lib300).expect("clean netlist");

    // --- Timing: valid at both corners, 10 K within ~15 % of 300 K. ------
    let mean300 = lib300.stats().mean_delay;
    let sta = |lib: &Library| {
        let cfg = StaConfig {
            macro_delay_scale: lib.stats().mean_delay / mean300,
            ..StaConfig::default()
        };
        analyze(&design, lib, &cfg).expect("sta")
    };
    let t300 = sta(&lib300);
    let t10 = sta(&lib10);
    assert!(t300.critical_path_delay > 50e-12, "path is nontrivial");
    assert!(t300.critical_path_delay < 5e-9, "path is sane");
    let ratio = t10.critical_path_delay / t300.critical_path_delay;
    assert!(
        (0.85..1.20).contains(&ratio),
        "paper: timing 'impacted only marginally'; ratio = {ratio:.3}"
    );
    assert!(t300.critical_path.len() > 5, "path has real depth");
    assert!(t10.worst_hold_slack > 0.0, "paper: hold times not impacted");

    // --- Power: leakage collapse makes 10 K feasible. --------------------
    let profile = ActivityProfile::with_default(0.15);
    let power = |lib: &Library, f: f64| {
        let cfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), lib.temperature, f);
        analyze_power(&design, lib, &cfg, &profile, None).expect("power")
    };
    let p300 = power(&lib300, t300.fmax());
    let p10 = power(&lib10, t10.fmax());
    assert!(
        p300.sram_leakage_w > 0.1,
        "581 KB of ultra-low-Vth SRAM leaks heavily at 300 K: {:.3} W",
        p300.sram_leakage_w
    );
    assert!(
        p10.sram_leakage_w < 1e-3,
        "SRAM leakage collapses at 10 K: {:.3e} W",
        p10.sram_leakage_w
    );
    let leak300 = p300.logic_leakage_w + p300.sram_leakage_w;
    let leak10 = p10.logic_leakage_w + p10.sram_leakage_w;
    assert!(
        leak10 / leak300 < 0.01,
        "paper: 99.76 % leakage reduction; got {:.4}",
        1.0 - leak10 / leak300
    );
    // Dynamic power stays the same order of magnitude across corners.
    let dyn_ratio = p10.dynamic_w / p300.dynamic_w;
    assert!(
        (0.5..1.5).contains(&dyn_ratio),
        "dynamic ratio {dyn_ratio:.3}"
    );

    // --- Exact pin: every output bit of this signoff. --------------------
    let worst: &[EndpointSummary] = &t300.worst_paths;
    assert_eq!(worst[0].endpoint, t300.endpoint);
    // One degraded 300 K analysis: two cells (one sequential, one
    // combinational) gone from the library, each with a drive sibling to
    // borrow from, plus seeded lookup faults inside the ALU.
    let missing = ["DFFx2", "BUFx1"];
    let mut holey = Library::new(&lib300.name, lib300.temperature, lib300.vdd);
    for cell in lib300.cells() {
        if !missing.contains(&cell.name.as_str()) {
            holey.add_cell(cell.clone());
        }
    }
    assert_eq!(holey.len() + missing.len(), lib300.len());
    let _ = work::take();
    let clean_evals = {
        sta(&lib300);
        work::take().arc_evals
    };
    let (degraded, injections, degraded_evals) = {
        let _g = fault::install_guard(FaultPlan {
            seed: 11,
            sta_lookup: 0.05,
            scope: Some("sta:alu".into()),
            ..FaultPlan::default()
        });
        let cfg = StaConfig {
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.1 },
            ..StaConfig::default()
        };
        let report = analyze(&design, &holey, &cfg).expect("degraded sta");
        (report, fault::injection_count(), work::take().arc_evals)
    };
    assert!(injections > 0, "the fault plan must fire");
    assert!(degraded.degraded_arcs.len() > injections as usize);
    // Toggle counts of the measured-activity test's vectors, as one digest
    // of every net's count (little-endian `u64`s in net order).
    let toggles = simulate_toggles(&design, &lib300, &toggle_vectors(&design)).expect("toggles");
    let toggle_bytes: Vec<u8> = toggles
        .toggles
        .iter()
        .flat_map(|t| t.to_le_bytes())
        .collect();
    let verilog = write_verilog(&design);
    check_signoff_golden(Value::Object(vec![
        ("timing_300k".into(), t300.to_value()),
        ("timing_10k".into(), t10.to_value()),
        ("power_300k".into(), power_bits(&p300)),
        ("power_10k".into(), power_bits(&p10)),
        ("arc_evals_300k".into(), clean_evals.to_value()),
        ("degraded_300k".into(), degraded.to_value()),
        ("degraded_injections".into(), injections.to_value()),
        ("degraded_arc_evals".into(), degraded_evals.to_value()),
        (
            "verilog_digest".into(),
            content_digest(verilog.as_bytes()).to_value(),
        ),
        ("verilog_bytes".into(), verilog.len().to_value()),
        (
            "toggles_digest".into(),
            content_digest(&toggle_bytes).to_value(),
        ),
        ("toggle_cycles".into(), toggles.cycles.to_value()),
    ]));
}

/// A power report as `f64` bit patterns (hex): the three totals, then each
/// region's dynamic power, regions sorted by name.
fn power_bits(p: &PowerReport) -> Value {
    let bits = |x: f64| Value::String(format!("{:016x}", x.to_bits()));
    let mut regions: Vec<(&String, &f64)> = p.per_region_dynamic.iter().collect();
    regions.sort_by(|a, b| a.0.cmp(b.0));
    Value::Object(vec![
        ("dynamic_w".into(), bits(p.dynamic_w)),
        ("logic_leakage_w".into(), bits(p.logic_leakage_w)),
        ("sram_leakage_w".into(), bits(p.sram_leakage_w)),
        (
            "per_region_dynamic".into(),
            Value::Object(
                regions
                    .into_iter()
                    .map(|(r, w)| (r.clone(), bits(*w)))
                    .collect(),
            ),
        ),
    ])
}

/// Compare `got` with `tests/golden/soc_tiny_signoff.json` as text, or
/// rewrite the golden when `CRYO_BLESS` is set. Floats print as their
/// shortest round-trip decimal and power as bit patterns, so a reordered
/// float sum fails here even where `experiments_golden`'s 1e-9 relative
/// tolerance would pass it.
fn check_signoff_golden(got: Value) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/soc_tiny_signoff.json");
    let text = serde_json::to_string_pretty(&got).unwrap() + "\n";
    if std::env::var_os("CRYO_BLESS").is_some() {
        std::fs::write(&path, text).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden {} unreadable ({e}); CRYO_BLESS=1 creates it",
            path.display()
        )
    });
    if text != golden {
        let want = serde_json::parse(&golden).expect("golden parses");
        let Value::Object(fields) = &got else {
            unreachable!()
        };
        let drifted: Vec<&str> = fields
            .iter()
            .filter(|(k, v)| {
                serde_json::to_string(v).ok() != serde_json::to_string(want.get(k)).ok()
            })
            .map(|(k, _)| k.as_str())
            .collect();
        panic!("tiny SoC signoff drifted from its golden in {drifted:?} (CRYO_BLESS=1 regenerates after an intentional change)");
    }
}

/// 48 pseudo-random primary-input vectors from a fixed xorshift seed.
fn toggle_vectors(design: &cryo_soc::netlist::Design) -> Vec<Vec<bool>> {
    let n_pi = design.primary_inputs.len();
    let mut seed = 0xACDCu64;
    (0..48)
        .map(|_| {
            (0..n_pi)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed & 1 == 1
                })
                .collect()
        })
        .collect()
}

#[test]
fn measured_toggles_agree_with_profile_order_of_magnitude() {
    // The paper extracts real switching activity from gate-level
    // simulation; our region profiles must land in the same regime as the
    // measured-toggle path on a design where both are tractable.
    let design = build_soc(&SocConfig::tiny());
    let lib = library_for_design(&design, 300.0);
    let toggles = simulate_toggles(&design, &lib, &toggle_vectors(&design)).expect("toggle sim");
    assert!(toggles.mean_activity() > 0.0, "something must switch");
    let cfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 1e9);
    let profile = ActivityProfile::with_default(toggles.mean_activity());
    let p_measured = analyze_power(&design, &lib, &cfg, &profile, Some(&toggles)).unwrap();
    let p_profile = analyze_power(&design, &lib, &cfg, &profile, None).unwrap();
    let ratio = p_measured.dynamic_w / p_profile.dynamic_w;
    assert!(
        (0.2..5.0).contains(&ratio),
        "measured vs profile dynamic power: {:.3e} vs {:.3e}",
        p_measured.dynamic_w,
        p_profile.dynamic_w
    );
    // Leakage is activity-independent: identical either way.
    assert_eq!(p_measured.logic_leakage_w, p_profile.logic_leakage_w);
}

#[test]
fn library_subset_covers_full_soc_cell_names() {
    // Every cell the full-size SoC instantiates must resolve to a topology
    // (otherwise full-flow characterization would fail midway).
    let design = build_soc(&SocConfig::default());
    let used: BTreeSet<&str> = design.instances().iter().map(|i| i.cell.as_str()).collect();
    for name in used {
        assert!(
            topology::by_name(name).is_some(),
            "SoC instantiates unknown cell {name}"
        );
    }
}

#[test]
fn soc_area_and_regions_scale_with_config() {
    let tiny = build_soc(&SocConfig::tiny());
    let full = build_soc(&SocConfig::default());
    assert!(full.cell_count() > 20 * tiny.cell_count());
    let regions = full.region_histogram();
    assert!(regions["uncore"] > regions["alu"], "uncore dominates count");
    // Macro memory matches the paper at any logic scale.
    let kb: f64 = full.macros().iter().map(|m| m.spec.kbytes).sum();
    assert!((kb - 581.0).abs() < 1.0);
}
