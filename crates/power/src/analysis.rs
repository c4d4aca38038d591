//! Average-power computation (the Fig. 6 breakdown).

use std::cell::Cell;
use std::collections::HashMap;

use cryo_device::ModelCard;
use cryo_liberty::{Library, PowerArc};
use cryo_netlist::design::Design;
use cryo_spice::{fault, work};

use crate::activity::{ActivityProfile, ToggleCounts};
use crate::{PowerError, Result};

/// Power-analysis configuration.
#[derive(Debug, Clone)]
pub struct PowerConfig {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Clock frequency, hertz.
    pub frequency: f64,
    /// n-FinFET card used for SRAM macro leakage at the corner temperature.
    pub nfet: ModelCard,
    /// Operating temperature, kelvin (should match the library corner).
    pub temperature: f64,
    /// Representative input slew for energy lookups, seconds.
    pub typical_slew: f64,
    /// Fraction of a flip-flop's clk→Q internal energy burned every cycle by
    /// internal clock loading even when Q does not switch.
    pub dff_clock_energy_factor: f64,
}

impl PowerConfig {
    /// Defaults at a given corner.
    #[must_use]
    pub fn at(nfet: &ModelCard, temperature: f64, frequency: f64) -> Self {
        Self {
            vdd: 0.7,
            frequency,
            nfet: nfet.clone(),
            temperature,
            typical_slew: 20e-12,
            dff_clock_energy_factor: 0.30,
        }
    }
}

/// The Fig. 6 power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Corner name.
    pub corner: String,
    /// Dynamic (switching + internal + clock + SRAM access) power, watts.
    pub dynamic_w: f64,
    /// Standard-cell leakage, watts.
    pub logic_leakage_w: f64,
    /// SRAM macro leakage, watts.
    pub sram_leakage_w: f64,
    /// Dynamic power per region, watts.
    pub per_region_dynamic: HashMap<String, f64>,
}

impl PowerReport {
    /// Total average power, watts.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic_w + self.logic_leakage_w + self.sram_leakage_w
    }

    /// Whether the SoC fits the cryostat's cooling capacity.
    #[must_use]
    pub fn fits_budget(&self, budget_w: f64) -> bool {
        self.total() <= budget_w
    }

    /// Render a Voltus-flavoured summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "Corner {}: dynamic {:.2} mW + logic leakage {:.3} mW + SRAM leakage {:.3} mW = {:.2} mW",
            self.corner,
            self.dynamic_w * 1e3,
            self.logic_leakage_w * 1e3,
            self.sram_leakage_w * 1e3,
            self.total() * 1e3
        )
    }
}

/// Compute the average power of `design` at a library corner under either a
/// region [`ActivityProfile`] or measured [`ToggleCounts`].
///
/// # Errors
///
/// - [`PowerError::UnmappedCell`] for instances missing from the library.
/// - [`PowerError::NonFiniteAccumulation`] when a contribution goes NaN/∞
///   (corrupted energy tables, or an injected `power=` fault).
pub fn analyze_power(
    design: &Design,
    lib: &Library,
    cfg: &PowerConfig,
    profile: &ActivityProfile,
    measured: Option<&ToggleCounts>,
) -> Result<PowerReport> {
    analyze_power_on(design, lib, cfg, profile, measured, work::threads())
}

/// Fewest instances [`analyze_power`] hands a thread: below this,
/// starting a thread costs more than the contributions it computes.
const MIN_INSTANCES_PER_THREAD: usize = 4096;

thread_local! {
    /// The per-instance contributions of the last analysis on this thread,
    /// kept for the next one. A full-SoC buffer is 4.6 MB. Allocated and
    /// freed by every call, its release let glibc trim the heap, and the
    /// next netlist build and analysis faulted their pages in again:
    /// 28 400 minor faults per benchmark signoff operation, against none
    /// with the buffer kept.
    static CONTRIBUTIONS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// [`analyze_power`] with the per-instance contributions computed over
/// `threads` threads, in contiguous chunks of instances, and summed in
/// instance order on the calling thread, so the totals keep their bits at
/// any thread count.
fn analyze_power_on(
    design: &Design,
    lib: &Library,
    cfg: &PowerConfig,
    profile: &ActivityProfile,
    measured: Option<&ToggleCounts>,
    threads: usize,
) -> Result<PowerReport> {
    let cell_types = design.cell_types();
    let cells = crate::bind_cells(design, lib)?;
    // Net loads (same model as STA).
    let net_load = design.net_loads(2.0e-15, |t, pin| {
        cells[t].pin(pin).map_or(0.0, |p| p.capacitance)
    });

    // Per cell type: leakage, each output's power arcs, and a sequential
    // cell's clk→Q internal energy.
    let leakage: Vec<f64> = cells.iter().map(|c| c.average_leakage()).collect();
    let out_arcs: Vec<Vec<EnergyArcs>> = cell_types
        .iter()
        .zip(&cells)
        .map(|(ty, cell)| {
            let arcs = |pin: &String| {
                EnergyArcs::new(cell.power_arcs.iter().filter(|p| p.pin == *pin).collect())
            };
            ty.outputs.iter().map(arcs).collect()
        })
        .collect();
    let clock_energy: Vec<Option<f64>> = cells
        .iter()
        .map(|c| {
            let e_clkq =
                || EnergyArcs::new(c.power_arcs.iter().collect()).mean(cfg.typical_slew, 1e-15);
            c.is_sequential().then(e_clkq)
        })
        .collect();
    let region_alpha: Vec<f64> = design.regions().iter().map(|r| profile.alpha(r)).collect();
    let mean_activity = measured.map(ToggleCounts::mean_activity);

    let fault_active = fault::is_active();
    // One instance's dynamic power, or `None` when it is not finite.
    let contribution = |i: usize| {
        // Per-instance injection context: the fault schedule is a function
        // of the instance, whichever thread computes it.
        if fault_active {
            fault::set_context(&format!("power:{}", design.instance_name(i)));
        }
        let inst = design.instance_ids(i);
        let t = inst.cell_type;
        let mut inst_dyn = 0.0;
        for (&net, arcs) in inst.outputs.iter().zip(&out_arcs[t]) {
            let net = net as usize;
            let load = net_load[net];
            // Activity: measured toggles if available, else region profile.
            let alpha = measured.map_or(region_alpha[inst.region], |m| m.activity(net));
            // Internal energy: mean power arc at the lookup point.
            let e_int = arcs.mean(cfg.typical_slew, load);
            // Load energy: half CV² per transition on average.
            let e_load = 0.5 * load * cfg.vdd * cfg.vdd;
            inst_dyn += alpha * cfg.frequency * (e_int + e_load);
        }
        // Sequential cells burn internal clock power every cycle — derated
        // by the region's activity to model the integrated clock gating a
        // synthesis flow inserts on idle banks (20 % of the tree is assumed
        // ungatable).
        if let Some(e_clkq) = clock_energy[t] {
            let alpha = mean_activity.unwrap_or(region_alpha[inst.region]);
            let gating = 0.2 + 0.8 * (alpha * 4.0).min(1.0);
            inst_dyn += cfg.dff_clock_energy_factor * e_clkq * cfg.frequency * gating;
        }
        if fault_active && fault::should_fault_power_accum() {
            inst_dyn = f64::NAN;
        }
        inst_dyn.is_finite().then_some(inst_dyn)
    };
    let mut contributions = CONTRIBUTIONS.take();
    contributions.clear();
    contributions.resize(design.cell_count(), 0.0);
    let ranges = work::split(contributions.len(), threads, MIN_INSTANCES_PER_THREAD);
    let pieces = contributions.chunks_mut(ranges[0].len().max(1));
    let filled = work::fork(
        ranges.into_iter().zip(pieces).collect(),
        |(range, piece)| {
            for (slot, i) in piece.iter_mut().zip(range) {
                *slot = contribution(i).ok_or(i)?;
            }
            Ok(())
        },
    );
    if fault_active {
        fault::set_context("");
    }
    // Poison is detected at the contributing instance, the first in
    // instance order — a NaN summed into the totals would silently wipe
    // out the whole report.
    filled.map_err(|i| PowerError::NonFiniteAccumulation {
        instance: design.instance_name(i).to_string(),
    })?;
    let mut dynamic = 0.0;
    let mut logic_leak = 0.0;
    let mut region_dynamic: Vec<Option<f64>> = vec![None; region_alpha.len()];
    for (i, &inst_dyn) in contributions.iter().enumerate() {
        let inst = design.instance_ids(i);
        logic_leak += leakage[inst.cell_type];
        dynamic += inst_dyn;
        *region_dynamic[inst.region].get_or_insert(0.0) += inst_dyn;
    }
    CONTRIBUTIONS.set(contributions);
    let mut per_region: HashMap<String, f64> = design
        .regions()
        .iter()
        .zip(region_dynamic)
        .filter_map(|(r, p)| Some((r.clone(), p?)))
        .collect();

    // SRAM macros: leakage from the device model, access energy from the
    // macro model.
    let mut sram_leak = 0.0;
    for m in design.macros() {
        sram_leak += m.spec.leakage(&cfg.nfet, cfg.temperature, cfg.vdd);
        let accesses = profile.macro_accesses(&m.name);
        let p_access = accesses * cfg.frequency * m.spec.access_energy(cfg.vdd);
        dynamic += p_access;
        *per_region.entry(m.region.clone()).or_insert(0.0) += p_access;
    }

    if !(dynamic.is_finite() && logic_leak.is_finite() && sram_leak.is_finite()) {
        return Err(PowerError::NonFiniteAccumulation {
            instance: "<total>".to_string(),
        });
    }

    Ok(PowerReport {
        corner: lib.name.clone(),
        dynamic_w: dynamic,
        logic_leakage_w: logic_leak,
        sram_leakage_w: sram_leak,
        per_region_dynamic: per_region,
    })
}

/// Power arcs whose energies are averaged together, and whether all their
/// tables share axes, so that one `Lut2::locate` serves them all.
struct EnergyArcs<'a> {
    arcs: Vec<&'a PowerArc>,
    shared_axes: bool,
}

impl<'a> EnergyArcs<'a> {
    fn new(arcs: Vec<&'a PowerArc>) -> Self {
        let shared_axes = arcs.first().is_some_and(|first| {
            let axes = &first.rise_energy;
            let mut tables = arcs.iter().flat_map(|p| [&p.rise_energy, &p.fall_energy]);
            tables.all(|t| t.same_axes(axes))
        });
        Self { arcs, shared_axes }
    }

    /// Mean internal energy at a lookup point (zero for no arcs): each
    /// arc's [`PowerArc::average_energy`], summed in arc order.
    fn mean(&self, slew: f64, load: f64) -> f64 {
        let n = self.arcs.len().max(1) as f64;
        let sum: f64 = if self.shared_axes {
            let at = self.arcs[0].rise_energy.locate(slew, load);
            let average = |p: &&PowerArc| {
                0.5 * (p.rise_energy.interpolate(at) + p.fall_energy.interpolate(at))
            };
            self.arcs.iter().map(average).sum()
        } else {
            self.arcs.iter().map(|p| p.average_energy(slew, load)).sum()
        };
        sum / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::simulate_toggles;
    use cryo_device::Polarity;
    use cryo_liberty::{ArcKind, Cell, LogicFunction, Lut2, Pin, PowerArc, TimingArc, TimingSense};
    use cryo_netlist::DesignBuilder;

    fn synth_lib() -> Library {
        let mut lib = Library::new("p", 300.0, 0.7);
        for (name, invert) in [("INVx1", true), ("BUFx2", false)] {
            let f = LogicFunction::from_eval(&["A"], move |b| (b & 1 != 0) != invert);
            lib.add_cell(Cell {
                name: name.to_string(),
                area: 0.05,
                pins: vec![Pin::input("A", 1e-15), Pin::output("Y", f)],
                arcs: vec![TimingArc {
                    related_pin: "A".into(),
                    pin: "Y".into(),
                    kind: ArcKind::Combinational,
                    sense: TimingSense::NegativeUnate,
                    cell_rise: Lut2::constant(10e-12),
                    cell_fall: Lut2::constant(10e-12),
                    rise_transition: Lut2::constant(5e-12),
                    fall_transition: Lut2::constant(5e-12),
                    sigma: None,
                }],
                power_arcs: vec![PowerArc {
                    related_pin: "A".into(),
                    pin: "Y".into(),
                    rise_energy: Lut2::constant(2e-15),
                    fall_energy: Lut2::constant(2e-15),
                }],
                leakage_states: vec![(0, 5e-9), (1, 7e-9)],
                ff: None,
                drive: 1,
            });
        }
        let nand = LogicFunction::from_eval(&["A", "B"], |b| b & 3 != 3);
        lib.add_cell(Cell {
            name: "NAND2x1".into(),
            area: 0.06,
            pins: vec![
                Pin::input("A", 1e-15),
                Pin::input("B", 1e-15),
                Pin::output("Y", nand),
            ],
            arcs: vec![],
            power_arcs: vec![PowerArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                rise_energy: Lut2::constant(3e-15),
                fall_energy: Lut2::constant(3e-15),
            }],
            leakage_states: vec![(0, 6e-9)],
            ff: None,
            drive: 1,
        });
        lib
    }

    fn chain_design() -> Design {
        let mut b = DesignBuilder::new("c");
        let mut x = b.input("in");
        for _ in 0..3 {
            x = b.inv(x, 1);
        }
        b.mark_output(x);
        b.finish()
    }

    #[test]
    fn toggle_simulation_counts_chain() {
        let lib = synth_lib();
        let d = chain_design();
        // Alternate the input: every net toggles every cycle.
        let vectors: Vec<Vec<bool>> = (0..10).map(|i| vec![i % 2 == 1]).collect();
        let t = simulate_toggles(&d, &lib, &vectors).unwrap();
        // After warmup, each inverter output toggles once per cycle.
        for inst in d.instances().iter() {
            let net = inst.output_nets()[0] as usize;
            assert!(
                t.activity(net) > 0.8,
                "net {} activity {}",
                d.net_name(net),
                t.activity(net)
            );
        }
    }

    #[test]
    fn constant_input_means_no_toggles() {
        let lib = synth_lib();
        let d = chain_design();
        let vectors: Vec<Vec<bool>> = (0..10).map(|_| vec![true]).collect();
        let t = simulate_toggles(&d, &lib, &vectors).unwrap();
        let total_after_first: u64 = t.toggles.iter().sum();
        // Only the very first application can toggle nets.
        assert!(total_after_first <= d.net_count() as u64);
    }

    #[test]
    fn power_scales_with_activity_and_frequency() {
        let lib = synth_lib();
        let d = chain_design();
        let cfg1 = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 1e9);
        let lo = ActivityProfile::with_default(0.1);
        let hi = ActivityProfile::with_default(0.4);
        let p_lo = analyze_power(&d, &lib, &cfg1, &lo, None).unwrap();
        let p_hi = analyze_power(&d, &lib, &cfg1, &hi, None).unwrap();
        assert!((p_hi.dynamic_w / p_lo.dynamic_w - 4.0).abs() < 0.01);
        let cfg2 = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 2e9);
        let p_2g = analyze_power(&d, &lib, &cfg2, &lo, None).unwrap();
        assert!((p_2g.dynamic_w / p_lo.dynamic_w - 2.0).abs() < 0.01);
        // Leakage is activity-independent.
        assert_eq!(p_lo.logic_leakage_w, p_hi.logic_leakage_w);
    }

    #[test]
    fn measured_toggles_drive_power() {
        let lib = synth_lib();
        let d = chain_design();
        let cfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 1e9);
        let busy: Vec<Vec<bool>> = (0..32).map(|i| vec![i % 2 == 0]).collect();
        let idle: Vec<Vec<bool>> = (0..32).map(|_| vec![false]).collect();
        let t_busy = simulate_toggles(&d, &lib, &busy).unwrap();
        let t_idle = simulate_toggles(&d, &lib, &idle).unwrap();
        let profile = ActivityProfile::with_default(0.0);
        let p_busy = analyze_power(&d, &lib, &cfg, &profile, Some(&t_busy)).unwrap();
        let p_idle = analyze_power(&d, &lib, &cfg, &profile, Some(&t_idle)).unwrap();
        assert!(p_busy.dynamic_w > 10.0 * p_idle.dynamic_w.max(1e-12));
    }

    #[test]
    fn power_arcs_on_other_grids_sum_like_per_arc_lookups() {
        // NAND2x1 with slew- and load-dependent energies on two grids, and
        // a 1×1 constant beside them.
        let mut lib = synth_lib();
        let mut nand = lib.cell("NAND2x1").unwrap().clone();
        let grid = |s: [f64; 2], l: [f64; 2], v: [f64; 4]| {
            Lut2::new(s.to_vec(), l.to_vec(), v.to_vec()).unwrap()
        };
        let (slews, loads) = ([1e-12, 100e-12], [0.0, 10e-15]);
        nand.power_arcs = vec![
            PowerArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                rise_energy: grid(slews, loads, [1e-15, 2e-15, 3e-15, 5e-15]),
                fall_energy: grid(slews, loads, [2e-15, 3e-15, 4e-15, 7e-15]),
            },
            PowerArc {
                related_pin: "B".into(),
                pin: "Y".into(),
                rise_energy: grid(
                    [5e-12, 50e-12],
                    [1e-16, 4e-15],
                    [1e-15, 4e-15, 6e-15, 9e-15],
                ),
                fall_energy: Lut2::constant(2.5e-15),
            },
        ];
        lib.add_cell(nand);
        let arcs = &lib.cell("NAND2x1").unwrap().power_arcs;
        assert!(!EnergyArcs::new(arcs.iter().collect()).shared_axes);
        assert!(EnergyArcs::new(arcs[..1].iter().collect()).shared_axes);

        let mut b = DesignBuilder::new("grids");
        let (x, y) = (b.input("a"), b.input("b"));
        let z = b.nand2(x, y, 1);
        b.mark_output(z);
        let d = b.finish();
        let cfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 1e9);
        let report =
            analyze_power(&d, &lib, &cfg, &ActivityProfile::with_default(0.1), None).unwrap();

        let load = d.net_loads(2.0e-15, |_, _| 1e-15)[z];
        let energy = |p: &PowerArc| p.average_energy(cfg.typical_slew, load);
        let e_int = (energy(&arcs[0]) + energy(&arcs[1])) / 2.0;
        let e_load = 0.5 * load * cfg.vdd * cfg.vdd;
        assert_eq!(report.dynamic_w, 0.1 * cfg.frequency * (e_int + e_load));
    }

    #[test]
    fn report_totals_and_budget() {
        let r = PowerReport {
            corner: "c".into(),
            dynamic_w: 0.057,
            logic_leakage_w: 0.0001,
            sram_leakage_w: 0.0004,
            per_region_dynamic: HashMap::new(),
        };
        assert!((r.total() - 0.0575).abs() < 1e-9);
        assert!(r.fits_budget(0.1), "paper: 10 K SoC fits 100 mW");
        assert!(!r.fits_budget(0.05));
        assert!(r.summary().contains("mW"));
    }

    #[test]
    fn injected_power_fault_is_detected_not_propagated() {
        use cryo_spice::fault::FaultPlan;
        let lib = synth_lib();
        let d = chain_design();
        let cfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 1e9);
        let profile = ActivityProfile::with_default(0.1);
        let plan = FaultPlan {
            seed: 3,
            power_aggregation: 1.0,
            max_injections: Some(1),
            ..FaultPlan::default()
        };
        {
            let _g = fault::install_guard(plan);
            let err = analyze_power(&d, &lib, &cfg, &profile, None).unwrap_err();
            let PowerError::NonFiniteAccumulation { instance } = &err else {
                panic!("expected NonFiniteAccumulation, got {err:?}");
            };
            assert_eq!(
                instance,
                d.instance_name(0),
                "poison is pinned to the contributing instance"
            );
            assert_eq!(fault::injection_count(), 1);
        }
        // The injector is gone: the same analysis is clean and finite.
        let report = analyze_power(&d, &lib, &cfg, &profile, None).unwrap();
        assert!(report.total().is_finite());
    }

    /// Rows of four-inverter chains in three regions: 13 288 instances,
    /// which three threads split.
    fn wide_design() -> Design {
        let mut b = DesignBuilder::new("wide");
        for row in 0..(3 * MIN_INSTANCES_PER_THREAD + 1000) / 4 {
            b.set_region(["core", "alu", "fpu"][row % 3]);
            let mut x = b.input(&format!("in{row}"));
            for _ in 0..4 {
                x = b.inv(x, 1);
            }
            b.mark_output(x);
        }
        b.finish()
    }

    /// A report's totals and per-region powers (by name) as bits.
    fn bits(r: &PowerReport) -> Vec<u64> {
        let mut regions: Vec<_> = r.per_region_dynamic.iter().collect();
        regions.sort_by(|a, b| a.0.cmp(b.0));
        [r.dynamic_w, r.logic_leakage_w, r.sram_leakage_w]
            .into_iter()
            .chain(regions.into_iter().map(|(_, &w)| w))
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn the_thread_count_changes_no_power_bit() {
        use cryo_spice::fault::FaultPlan;
        let lib = synth_lib();
        let d = wide_design();
        assert_eq!(
            work::split(d.cell_count(), 7, MIN_INSTANCES_PER_THREAD).len(),
            3
        );
        let cfg = PowerConfig::at(&ModelCard::nominal(Polarity::N), 300.0, 1e9);
        let mut profile = ActivityProfile::with_default(0.1);
        profile.set_region("alu", 0.37).set_region("fpu", 0.013);
        let vectors: Vec<Vec<bool>> = (0..6)
            .map(|v| {
                (0..d.primary_inputs.len())
                    .map(|k| (k * 7 + v) % 5 < 2)
                    .collect()
            })
            .collect();
        let toggles = simulate_toggles(&d, &lib, &vectors).unwrap();
        for measured in [None, Some(&toggles)] {
            let runs: Vec<Vec<u64>> = [1, 2, 3, 7]
                .into_iter()
                .map(|threads| {
                    let r = analyze_power_on(&d, &lib, &cfg, &profile, measured, threads);
                    bits(&r.unwrap())
                })
                .collect();
            assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
        }
        // Under faults: the first poisoned instance in instance order, and
        // the one fault that poisoned it.
        let plan = FaultPlan {
            seed: 9,
            power_aggregation: 0.0002,
            ..FaultPlan::default()
        };
        let runs: Vec<_> = [1, 2, 3, 7]
            .into_iter()
            .map(|threads| {
                let _g = fault::install_guard(plan.clone());
                let r = analyze_power_on(&d, &lib, &cfg, &profile, None, threads);
                (r.unwrap_err(), fault::injection_count())
            })
            .collect();
        assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
        assert_eq!(runs[0].1, 1);
        let PowerError::NonFiniteAccumulation { instance } = &runs[0].0 else {
            panic!("{:?}", runs[0].0);
        };
        let poisoned = (0..d.cell_count()).position(|i| d.instance_name(i) == instance);
        assert!(
            poisoned > Some(d.cell_count() / 2),
            "the poison lands in a worker's chunk at any thread count above 1"
        );
    }

    #[test]
    fn vector_width_checked() {
        let lib = synth_lib();
        let d = chain_design();
        let err = simulate_toggles(&d, &lib, &[vec![true, false]]).unwrap_err();
        assert!(matches!(err, PowerError::VectorWidth { .. }));
    }
}
