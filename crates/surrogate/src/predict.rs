//! Inference: turn a trained model plus a warm library into a full
//! predicted library at the target corner.
//!
//! Every table entry of every cell is reconstructed as
//! `warm · exp(model(features))` (see [`crate::features`]), preserving the
//! warm table's axes and the warm entry's sign. Two invariants are enforced
//! *by construction* rather than hoped for:
//!
//! - delay tables are made monotone non-decreasing along the load axis by a
//!   row-wise running maximum, so the audit firewall's
//!   `delay_monotone_load` invariant cannot fire on model noise;
//! - zero entries (unused constraint/transition slots) stay exactly zero.
//!
//! Leakage is not learned: per-state leakage scales by the geometric mean
//! of the two polarities' off-current ratios from the model cards — the
//! physics is exponential in Vth/SS, and the device layer already knows it.

use std::collections::BTreeMap;

use cryo_device::CornerScalars;
use cryo_liberty::{ArcKind, Cell, Library, Lut2, Provenance, ResidualStats};

use crate::features::{
    apply_ratio, entry_features, is_holdout, CellDescriptor, Dataset, Edge, Normalizer, TableKind,
    TINY,
};
use crate::mlp::Mlp;

/// A trained surrogate ready to serve predictions: the network, the feature
/// normalizer it was fitted with, and the two corners it transfers between.
#[derive(Debug, Clone)]
pub struct Surrogate {
    /// Trained network.
    pub model: Mlp,
    /// Feature normalizer fitted on the training dataset.
    pub norm: Normalizer,
    /// Scalars of the warm (characterized anchor) corner.
    pub warm_sc: CornerScalars,
    /// Scalars of the cold (predicted target) corner.
    pub cold_sc: CornerScalars,
}

impl Surrogate {
    /// The model's identity digest (weights bit patterns).
    #[must_use]
    pub fn model_hash(&self) -> String {
        self.model.content_hash()
    }

    fn predict_entry(
        &self,
        warm: f64,
        slew: f64,
        load: f64,
        desc: &CellDescriptor,
        kind: TableKind,
        edge: Edge,
    ) -> f64 {
        if warm == 0.0 || !warm.is_finite() {
            return warm;
        }
        let f = entry_features(
            warm,
            slew,
            load,
            desc,
            &self.warm_sc,
            &self.cold_sc,
            kind,
            edge,
        );
        apply_ratio(warm, self.model.forward(&self.norm.normalize(&f)))
    }

    fn predict_table(
        &self,
        warm_t: &Lut2,
        desc: &CellDescriptor,
        kind: TableKind,
        edge: Edge,
        monotone_load: bool,
    ) -> Lut2 {
        let slews = warm_t.index1();
        let loads = warm_t.index2();
        let mut values = Vec::with_capacity(warm_t.values().len());
        for (i, &slew) in slews.iter().enumerate() {
            let mut running = f64::NEG_INFINITY;
            for (j, &load) in loads.iter().enumerate() {
                let mut v = self.predict_entry(
                    warm_t.values()[i * loads.len() + j],
                    slew,
                    load,
                    desc,
                    kind,
                    edge,
                );
                if monotone_load {
                    running = running.max(v);
                    v = running;
                }
                values.push(v);
            }
        }
        Lut2::new(slews.to_vec(), loads.to_vec(), values).unwrap_or_else(|_| warm_t.clone())
    }

    /// Predict one cell's tables at the target corner. Structure (pins,
    /// functions, flip-flop spec, area, drive) is carried over from the
    /// warm cell; timing/energy tables are model-predicted and per-state
    /// leakage is scaled by the device-layer off-current ratio.
    #[must_use]
    pub fn predict_cell(&self, warm_cell: &Cell) -> Cell {
        let desc = CellDescriptor::for_cell(warm_cell);
        let mut cell = warm_cell.clone();
        for arc in &mut cell.arcs {
            let (table_kind, monotone) = match arc.kind {
                ArcKind::Setup | ArcKind::Hold => (TableKind::Constraint, false),
                ArcKind::Combinational | ArcKind::ClockToQ => (TableKind::Delay, true),
            };
            arc.cell_rise =
                self.predict_table(&arc.cell_rise, &desc, table_kind, Edge::Rise, monotone);
            arc.cell_fall =
                self.predict_table(&arc.cell_fall, &desc, table_kind, Edge::Fall, monotone);
            let tk = if monotone {
                TableKind::Transition
            } else {
                TableKind::Constraint
            };
            arc.rise_transition =
                self.predict_table(&arc.rise_transition, &desc, tk, Edge::Rise, false);
            arc.fall_transition =
                self.predict_table(&arc.fall_transition, &desc, tk, Edge::Fall, false);
        }
        for pa in &mut cell.power_arcs {
            pa.rise_energy =
                self.predict_table(&pa.rise_energy, &desc, TableKind::Energy, Edge::Rise, false);
            pa.fall_energy =
                self.predict_table(&pa.fall_energy, &desc, TableKind::Energy, Edge::Fall, false);
        }
        let leak_ratio = self.leakage_ratio();
        for (_, leak) in &mut cell.leakage_states {
            *leak *= leak_ratio;
        }
        cell
    }

    /// Off-state leakage transfer ratio: geometric mean of the N and P
    /// off-current ratios between the corners.
    #[must_use]
    pub fn leakage_ratio(&self) -> f64 {
        let rn = self.cold_sc.ioff_n.max(TINY) / self.warm_sc.ioff_n.max(TINY);
        let rp = self.cold_sc.ioff_p.max(TINY) / self.warm_sc.ioff_p.max(TINY);
        (rn * rp).sqrt()
    }

    /// Predict the full library at the target corner. Cell order follows
    /// the warm library; provenance is tagged `Predicted` with the model
    /// hash and the provided residual statistics.
    #[must_use]
    pub fn predict_library(&self, warm: &Library, name: &str, residual: ResidualStats) -> Library {
        let mut lib = Library::new(name, self.cold_sc.temp, self.cold_sc.vdd);
        for cell in warm.cells() {
            lib.add_cell(self.predict_cell(cell));
        }
        lib.provenance = Provenance::Predicted {
            model_hash: self.model_hash(),
            residual,
        };
        lib
    }

    /// Residuals against the dataset, in the linear domain and *signed*:
    /// `|predicted − actual| / max(|actual|, |warm|, ε)`. The signed
    /// comparison matters — a sign-flipped (corrupted) probe entry leaves
    /// the magnitude-based training target untouched but shows up here as a
    /// relative error near 2, which is what the fallback gate catches.
    ///
    /// Returns aggregate statistics over the held-out split plus the
    /// per-cell worst residual over *all* of that cell's samples.
    #[must_use]
    pub fn residuals(&self, dataset: &Dataset) -> (ResidualStats, BTreeMap<String, f64>) {
        let mut per_cell: BTreeMap<String, f64> = BTreeMap::new();
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut n_holdout = 0usize;
        for (i, s) in dataset.samples.iter().enumerate() {
            let pred = apply_ratio(
                s.warm,
                self.model.forward(&self.norm.normalize(&s.features)),
            );
            let rel = (pred - s.cold).abs() / s.cold.abs().max(s.warm.abs()).max(TINY);
            let worst = per_cell.entry(s.cell.clone()).or_insert(0.0);
            *worst = worst.max(rel);
            if is_holdout(i) {
                sum += rel;
                max = max.max(rel);
                n_holdout += 1;
            }
        }
        let stats = ResidualStats {
            n_train: dataset.samples.len() - n_holdout,
            n_holdout,
            mean_abs_rel_err: if n_holdout > 0 {
                sum / n_holdout as f64
            } else {
                0.0
            },
            max_abs_rel_err: max,
        };
        (stats, per_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::N_FEATURES;
    use crate::mlp::{Mlp, Rng};
    use cryo_liberty::{Pin, PinDirection, TimingArc, TimingSense};

    fn corner(vdd: f64, temp: f64) -> CornerScalars {
        CornerScalars {
            vdd,
            temp,
            vth_n: 0.25,
            vth_p: -0.25,
            nfactor_n: 1.2,
            nfactor_p: 1.2,
            ion_n: 1e-4,
            ion_p: 8e-5,
            ioff_n: 1e-9,
            ioff_p: 2e-9,
        }
    }

    fn toy_surrogate(seed: u64) -> Surrogate {
        let mut rng = Rng::new(seed);
        Surrogate {
            model: Mlp::init(&[N_FEATURES, 8, 1], &mut rng),
            norm: Normalizer {
                lo: vec![0.0; N_FEATURES],
                hi: vec![1.0; N_FEATURES],
            },
            warm_sc: corner(0.7, 300.0),
            cold_sc: corner(0.6, 10.0),
        }
    }

    fn toy_cell() -> Cell {
        let slews = vec![5e-12, 2e-11, 8e-11];
        let loads = vec![8e-16, 3.2e-15, 1.28e-14];
        let vals: Vec<f64> = (0..9).map(|i| 1e-12 * (1.0 + i as f64)).collect();
        let t = Lut2::new(slews, loads, vals).unwrap();
        Cell {
            name: "INVx1".into(),
            area: 0.1,
            pins: vec![
                Pin {
                    name: "A".into(),
                    direction: PinDirection::Input,
                    capacitance: 1e-16,
                    function: None,
                    is_clock: false,
                },
                Pin {
                    name: "Y".into(),
                    direction: PinDirection::Output,
                    capacitance: 0.0,
                    function: None,
                    is_clock: false,
                },
            ],
            arcs: vec![TimingArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                kind: ArcKind::Combinational,
                sense: TimingSense::NegativeUnate,
                cell_rise: t.clone(),
                cell_fall: t.clone(),
                rise_transition: t.clone(),
                fall_transition: t.clone(),
                sigma: None,
            }],
            power_arcs: Vec::new(),
            leakage_states: vec![(0, 1e-9), (1, 2e-9)],
            ff: None,
            drive: 1,
        }
    }

    #[test]
    fn predicted_delay_tables_are_load_monotone_even_from_random_weights() {
        let sur = toy_surrogate(42);
        let pred = sur.predict_cell(&toy_cell());
        for arc in &pred.arcs {
            for t in [&arc.cell_rise, &arc.cell_fall] {
                let loads = t.index2().len();
                for row in t.values().chunks(loads) {
                    for w in row.windows(2) {
                        assert!(w[1] >= w[0], "delay must be monotone in load: {row:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_entries_and_structure_are_preserved() {
        let sur = toy_surrogate(7);
        let mut cell = toy_cell();
        cell.arcs[0].rise_transition = Lut2::constant(0.0);
        let pred = sur.predict_cell(&cell);
        assert!(pred.arcs[0]
            .rise_transition
            .values()
            .iter()
            .all(|&v| v == 0.0));
        assert_eq!(pred.pins.len(), cell.pins.len());
        assert_eq!(pred.name, cell.name);
        let r = sur.leakage_ratio();
        assert!((pred.leakage_states[0].1 - 1e-9 * r).abs() < 1e-24);
    }

    #[test]
    fn predicted_library_is_tagged_with_provenance() {
        let sur = toy_surrogate(3);
        let mut warm = Library::new("warm", 300.0, 0.7);
        warm.add_cell(toy_cell());
        let residual = ResidualStats {
            n_train: 40,
            n_holdout: 10,
            mean_abs_rel_err: 0.02,
            max_abs_rel_err: 0.1,
        };
        let lib = sur.predict_library(&warm, "cold_pred", residual);
        assert_eq!(lib.len(), 1);
        assert!((lib.temperature - 10.0).abs() < 1e-12);
        assert!(!lib.provenance.is_characterized());
        match &lib.provenance {
            Provenance::Predicted {
                model_hash,
                residual,
            } => {
                assert_eq!(model_hash, &sur.model_hash());
                assert_eq!(residual.n_holdout, 10);
            }
            Provenance::Characterized => unreachable!(),
        }
    }

    #[test]
    fn sign_flip_shows_up_as_residual_near_two() {
        // The detection mechanism behind poisoned-probe fallback: training
        // targets are magnitude ratios, but residuals compare signed
        // values, so a sign-flipped probe entry yields rel err ≈ 2.
        let sur = toy_surrogate(5);
        let warm = 2e-12;
        let cold_true = 3e-12;
        let sample = crate::features::ArcSample {
            cell: "NANDx1".into(),
            features: entry_features(
                warm,
                1e-11,
                1e-15,
                &CellDescriptor::for_cell(&toy_cell()),
                &sur.warm_sc,
                &sur.cold_sc,
                TableKind::Delay,
                Edge::Rise,
            ),
            target: crate::features::log_ratio(warm, -cold_true),
            warm,
            cold: -cold_true,
        };
        let ds = Dataset {
            samples: vec![sample],
        };
        let (_, per_cell) = sur.residuals(&ds);
        assert!(
            per_cell["NANDx1"] > 0.9,
            "sign flip must dominate the residual"
        );
    }
}
