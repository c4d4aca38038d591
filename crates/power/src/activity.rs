//! Switching-activity sources: gate-level toggle simulation and
//! region-based activity profiles.

use std::collections::HashMap;

use cryo_liberty::{Library, LogicFunction};
use cryo_netlist::design::Design;

use crate::{PowerError, Result};

/// Per-net toggle counts from a logic simulation.
#[derive(Debug, Clone)]
pub struct ToggleCounts {
    /// Toggles per net over the simulated window.
    pub toggles: Vec<u64>,
    /// Number of clock cycles simulated.
    pub cycles: u64,
}

impl ToggleCounts {
    /// Average toggles per cycle for a net.
    #[must_use]
    pub fn activity(&self, net: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[net] as f64 / self.cycles as f64
        }
    }

    /// Mean activity across all nets.
    #[must_use]
    pub fn mean_activity(&self) -> f64 {
        if self.toggles.is_empty() || self.cycles == 0 {
            return 0.0;
        }
        self.toggles.iter().sum::<u64>() as f64 / (self.toggles.len() as f64 * self.cycles as f64)
    }
}

/// Cycle-based gate-level logic simulation counting net toggles.
///
/// Per cycle: primary inputs take the next vector, combinational logic
/// settles (topological evaluation), flip-flops then capture their `D`
/// values. Toggles are counted on every net, including flip-flop outputs
/// and a double count on the clock nets (rise + fall per cycle).
///
/// # Errors
///
/// - [`PowerError::VectorWidth`] if vectors do not match the primary inputs.
/// - [`PowerError::UnmappedCell`] / [`PowerError::MissingFunction`] for
///   library holes.
pub fn simulate_toggles(
    design: &Design,
    lib: &Library,
    vectors: &[Vec<bool>],
) -> Result<ToggleCounts> {
    let n_nets = design.net_count();
    let n_pi = design.primary_inputs.len();
    for v in vectors {
        if v.len() != n_pi {
            return Err(PowerError::VectorWidth {
                expected: n_pi,
                got: v.len(),
            });
        }
    }
    let insts = design.instances();
    let cell_types = design.cell_types();
    let cells = crate::bind_cells(design, lib)?;
    // Per cell type: each output's function with, per function input, the
    // instance input feeding it; a flip-flop's `D` and clear inputs.
    let input = |t: usize, pin: &str| cell_types[t].inputs.iter().position(|p| p == pin);
    type Output<'a> = Option<(&'a LogicFunction, Vec<Option<usize>>)>;
    let outputs: Vec<Vec<Output>> = (0..cells.len())
        .map(|t| {
            let bind = |pin: &String| {
                let f = cells[t].pin(pin)?.function.as_ref()?;
                Some((f, f.inputs().iter().map(|name| input(t, name)).collect()))
            };
            cell_types[t].outputs.iter().map(bind).collect()
        })
        .collect();
    let ff: Vec<Option<(Option<usize>, Option<usize>)>> = (0..cells.len())
        .map(|t| {
            let ff = cells[t].ff.as_ref()?;
            let clear = ff.clear.as_deref().and_then(|rn| input(t, rn));
            Some((input(t, &ff.next_state), clear))
        })
        .collect();

    // Topological order of combinational instances (registers break
    // cycles): the levels STA builds, since its mask is the same.
    let seq: Vec<bool> = ff.iter().map(Option::is_some).collect();
    let levels = design.levels(&seq);

    let mut values = vec![false; n_nets];
    let mut ff_state = vec![false; design.cell_count()];
    let mut toggles = vec![0u64; n_nets];

    // Evaluate the combinational instances in order, counting toggles.
    let mut outs = Vec::new();
    let mut settle = |values: &mut [bool], toggles: &mut [u64]| -> Result<()> {
        for &i in levels.order() {
            let inst = insts.get(i as usize);
            let ins = inst.input_nets();
            outs.clear();
            for ((pin, net), out) in inst.outputs().zip(&outputs[inst.cell_type]) {
                let (f, feeds) = out.as_ref().ok_or_else(|| PowerError::MissingFunction {
                    instance: inst.name.to_string(),
                    pin: pin.to_string(),
                })?;
                let mut bits = 0u16;
                for (bi, feed) in feeds.iter().enumerate() {
                    if feed.is_some_and(|k| values[ins[k] as usize]) {
                        bits |= 1 << bi;
                    }
                }
                outs.push((net, f.eval(bits)));
            }
            for &(net, v) in &outs {
                if values[net] != v {
                    toggles[net] += 1;
                    values[net] = v;
                }
            }
        }
        Ok(())
    };

    for vector in vectors {
        // Apply inputs.
        for (k, &pi) in design.primary_inputs.iter().enumerate() {
            if values[pi] != vector[k] {
                toggles[pi] += 1;
                values[pi] = vector[k];
            }
        }
        // Clock toggles twice per cycle.
        if let Some(clk) = design.clock {
            toggles[clk] += 2;
        }
        // Settle combinational logic.
        settle(&mut values, &mut toggles)?;
        // Macro outputs: pseudo-random data pattern toggling half the bits
        // per access keeps downstream logic active (macro contents are not
        // logically modelled).
        // (Deterministic: flip alternating outputs every cycle.)
        for (mi, m) in design.macros().iter().enumerate() {
            for (k, &net) in m.outputs.iter().enumerate() {
                if (k + mi) % 2 == 0 {
                    values[net] = !values[net];
                    toggles[net] += 1;
                }
            }
        }
        // Register capture at the clock edge.
        let mut captured: Vec<(usize, bool)> = Vec::new();
        for (i, inst) in insts.iter().enumerate() {
            let Some((d, clear)) = ff[inst.cell_type] else {
                continue;
            };
            let ins = inst.input_nets();
            let d_val = d.is_some_and(|k| values[ins[k] as usize]);
            // Active-low clear forces zero.
            let cleared = clear.is_some_and(|k| !values[ins[k] as usize]);
            let new_q = if cleared { false } else { d_val };
            if ff_state[i] != new_q {
                ff_state[i] = new_q;
                for &net in inst.output_nets() {
                    captured.push((net as usize, new_q));
                }
            }
        }
        for (net, v) in captured {
            if values[net] != v {
                toggles[net] += 1;
                values[net] = v;
            }
        }
        // Re-settle after the edge so downstream logic sees new Q values.
        settle(&mut values, &mut toggles)?;
    }

    Ok(ToggleCounts {
        toggles,
        cycles: vectors.len() as u64,
    })
}

/// Per-region switching activity for the scalable power path.
///
/// `alpha(region)` is the average toggles-per-cycle of a net inside the
/// region; `sram_reads_per_cycle(macro)` counts accesses. The `cryo-core`
/// flow fills these from the RISC-V pipeline model's per-block utilization
/// for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProfile {
    region_alpha: HashMap<String, f64>,
    macro_access: HashMap<String, f64>,
    /// Activity applied to regions not explicitly listed.
    pub default_alpha: f64,
}

impl ActivityProfile {
    /// Empty profile with a default activity.
    #[must_use]
    pub fn with_default(default_alpha: f64) -> Self {
        Self {
            region_alpha: HashMap::new(),
            macro_access: HashMap::new(),
            default_alpha,
        }
    }

    /// Set a region's toggles-per-cycle.
    pub fn set_region(&mut self, region: &str, alpha: f64) -> &mut Self {
        self.region_alpha.insert(region.to_string(), alpha);
        self
    }

    /// Set a macro's accesses-per-cycle.
    pub fn set_macro_access(&mut self, name: &str, per_cycle: f64) -> &mut Self {
        self.macro_access.insert(name.to_string(), per_cycle);
        self
    }

    /// Activity for a region.
    #[must_use]
    pub fn alpha(&self, region: &str) -> f64 {
        // The clock network toggles every cycle regardless of workload.
        if region == "clock" {
            return *self.region_alpha.get(region).unwrap_or(&2.0);
        }
        *self.region_alpha.get(region).unwrap_or(&self.default_alpha)
    }

    /// Accesses-per-cycle for a macro (by name prefix match). When several
    /// prefixes match, the longest wins (ties broken lexicographically) so
    /// the answer never depends on hash-map iteration order.
    #[must_use]
    pub fn macro_accesses(&self, name: &str) -> f64 {
        self.macro_access
            .iter()
            .filter(|(k, _)| name.starts_with(k.as_str()))
            .max_by(|(ka, _), (kb, _)| ka.len().cmp(&kb.len()).then_with(|| kb.cmp(ka)))
            .map_or(0.0, |(_, v)| *v)
    }

    /// All explicit region activities, sorted by region name. The stable
    /// order makes the profile checkpointable: serialize these pairs, then
    /// rebuild with [`ActivityProfile::set_region`].
    #[must_use]
    pub fn regions_sorted(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .region_alpha
            .iter()
            .map(|(k, a)| (k.clone(), *a))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// All explicit macro access rates, sorted by prefix.
    #[must_use]
    pub fn macro_accesses_sorted(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .macro_access
            .iter()
            .map(|(k, a)| (k.clone(), *a))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Scale every explicit region activity by `factor` (calibration knob).
    pub fn scale(&mut self, factor: f64) {
        for v in self.region_alpha.values_mut() {
            if v.is_finite() {
                *v *= factor;
            }
        }
        self.default_alpha *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_defaults_and_overrides() {
        let mut p = ActivityProfile::with_default(0.1);
        p.set_region("alu", 0.4);
        p.set_macro_access("l1d", 0.3);
        assert_eq!(p.alpha("alu"), 0.4);
        assert_eq!(p.alpha("random"), 0.1);
        assert_eq!(p.alpha("clock"), 2.0);
        assert_eq!(p.macro_accesses("l1d_data"), 0.3);
        assert_eq!(p.macro_accesses("l2_bank0"), 0.0);
    }

    #[test]
    fn sorted_views_round_trip_and_prefix_match_is_deterministic() {
        let mut p = ActivityProfile::with_default(0.1);
        p.set_region("ifu", 0.3).set_region("alu", 0.4);
        p.set_macro_access("l1", 0.2).set_macro_access("l1d", 0.5);
        assert_eq!(
            p.regions_sorted(),
            vec![("alu".to_string(), 0.4), ("ifu".to_string(), 0.3)]
        );
        assert_eq!(
            p.macro_accesses_sorted(),
            vec![("l1".to_string(), 0.2), ("l1d".to_string(), 0.5)]
        );
        // Both "l1" and "l1d" prefix-match "l1d_bank0"; the longest wins,
        // independent of hash-map iteration order.
        assert_eq!(p.macro_accesses("l1d_bank0"), 0.5);
        assert_eq!(p.macro_accesses("l1i_bank0"), 0.2);
        // Rebuilding from the sorted views reproduces the profile.
        let mut q = ActivityProfile::with_default(p.default_alpha);
        for (r, a) in p.regions_sorted() {
            q.set_region(&r, a);
        }
        for (m, a) in p.macro_accesses_sorted() {
            q.set_macro_access(&m, a);
        }
        assert_eq!(p, q);
    }

    #[test]
    fn scaling_preserves_structure() {
        let mut p = ActivityProfile::with_default(0.1);
        p.set_region("alu", 0.4);
        p.scale(0.5);
        assert!((p.alpha("alu") - 0.2).abs() < 1e-12);
        assert!((p.default_alpha - 0.05).abs() < 1e-12);
    }
}
