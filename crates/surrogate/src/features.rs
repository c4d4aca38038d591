//! Training-dataset construction: per-table-entry feature vectors and
//! log-ratio targets.
//!
//! The surrogate learns a *transfer*, not an absolute model: for every NLDM
//! table entry it predicts `ln(|cold| / |warm|)` — the log of how much the
//! value moves between a characterized warm corner and the target (VDD, T)
//! corner. Anchoring on the warm value means the model only has to capture
//! the corner-to-corner physics (threshold shift, subthreshold slope, drive
//! strength), which a few hundred probe-cell samples pin down, instead of
//! the full topology → delay map.
//!
//! Features combine three layers of the stack:
//!
//! - **table geometry** — warm value, input slew, output load, table kind,
//!   rise/fall edge;
//! - **cell topology** (`cryo_cells::topology`) — fin count, transistor
//!   count, input count, drive strength, sequential flag;
//! - **device model cards** (`cryo_device::CornerScalars`) — target VDD and
//!   temperature plus Vth / n-factor / on-current deltas between the two
//!   corners, for both polarities.

use cryo_cells::topology::{self, CellNetlist};
use cryo_device::CornerScalars;
use cryo_liberty::{ArcKind, Cell, Library, Lut2};

use crate::det;

/// Floor applied before taking logs of table magnitudes, so zero entries
/// (e.g. unused transition tables) stay representable.
pub const TINY: f64 = 1e-30;

/// Number of features per sample (see [`entry_features`] for the layout).
pub const N_FEATURES: usize = 21;

/// What kind of quantity a table entry is, one-hot encoded in the features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Propagation delay (`cell_rise`/`cell_fall` of delay arcs).
    Delay,
    /// Output transition time.
    Transition,
    /// Setup/hold constraint (legitimately negative).
    Constraint,
    /// Switching energy.
    Energy,
}

/// Which edge the table describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Rising output (or rising data for constraints).
    Rise,
    /// Falling output.
    Fall,
}

/// Per-cell topology descriptors entering the feature vector.
#[derive(Debug, Clone, Copy)]
pub struct CellDescriptor {
    ln_fins: f64,
    n_transistors: f64,
    n_inputs: f64,
    ln_drive: f64,
    is_ff: f64,
}

impl CellDescriptor {
    /// Build from the programmatic netlist when the cell is a known
    /// topology, else approximate from the characterized cell model (pin
    /// count, drive tag, area) so prediction never aborts on an exotic name.
    #[must_use]
    pub fn for_cell(cell: &Cell) -> Self {
        match topology::by_name(&cell.name) {
            Some(net) => Self::from_netlist(&net),
            None => CellDescriptor {
                ln_fins: det::ln(f64::from(4 * cell.drive.max(1))),
                n_transistors: 4.0 * cell.pins.len() as f64,
                n_inputs: cell
                    .pins
                    .iter()
                    .filter(|p| p.direction == cryo_liberty::PinDirection::Input)
                    .count() as f64,
                ln_drive: det::ln(f64::from(cell.drive.max(1))),
                is_ff: f64::from(u8::from(cell.ff.is_some())),
            },
        }
    }

    fn from_netlist(net: &CellNetlist) -> Self {
        CellDescriptor {
            ln_fins: det::ln(f64::from(net.total_fins().max(1))),
            n_transistors: net.transistors.len() as f64,
            n_inputs: net.inputs.len() as f64,
            ln_drive: det::ln(f64::from(net.drive.max(1))),
            is_ff: f64::from(u8::from(net.ff.is_some())),
        }
    }
}

/// The fixed-order feature vector for one table entry.
///
/// Layout: `[ln|warm|, ln slew, ln load, ln fins, n_transistors, n_inputs,
/// ln drive, is_ff, vdd_target, temp_target/300, Δvth_n, Δvth_p,
/// Δnfactor_n, Δnfactor_p, ln(ion_n ratio), ln(ion_p ratio),
/// kind_delay, kind_transition, kind_constraint, kind_energy, edge_fall]`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn entry_features(
    warm_value: f64,
    slew: f64,
    load: f64,
    desc: &CellDescriptor,
    warm_sc: &CornerScalars,
    cold_sc: &CornerScalars,
    kind: TableKind,
    edge: Edge,
) -> Vec<f64> {
    let one_hot = |k: TableKind| f64::from(u8::from(kind == k));
    vec![
        det::ln(warm_value.abs().max(TINY)),
        det::ln(slew.abs().max(TINY)),
        det::ln(load.abs().max(TINY)),
        desc.ln_fins,
        desc.n_transistors,
        desc.n_inputs,
        desc.ln_drive,
        desc.is_ff,
        cold_sc.vdd,
        cold_sc.temp / 300.0,
        cold_sc.vth_n - warm_sc.vth_n,
        cold_sc.vth_p - warm_sc.vth_p,
        cold_sc.nfactor_n - warm_sc.nfactor_n,
        cold_sc.nfactor_p - warm_sc.nfactor_p,
        det::ln(cold_sc.ion_n.max(TINY) / warm_sc.ion_n.max(TINY)),
        det::ln(cold_sc.ion_p.max(TINY) / warm_sc.ion_p.max(TINY)),
        one_hot(TableKind::Delay),
        one_hot(TableKind::Transition),
        one_hot(TableKind::Constraint),
        one_hot(TableKind::Energy),
        f64::from(u8::from(edge == Edge::Fall)),
    ]
}

/// The training target for a (warm, cold) entry pair: `ln(|cold|/|warm|)`,
/// both magnitudes floored at [`TINY`]. Inverted by [`apply_ratio`].
#[must_use]
pub fn log_ratio(warm: f64, cold: f64) -> f64 {
    det::ln(cold.abs().max(TINY) / warm.abs().max(TINY))
}

/// Invert [`log_ratio`]: reconstruct the cold value from the warm anchor and
/// a predicted log-ratio. Zero warm entries are copied through unchanged —
/// the ratio is meaningless there and zero tables (unused constraint slots)
/// must stay zero.
#[must_use]
pub fn apply_ratio(warm: f64, predicted_log_ratio: f64) -> f64 {
    if warm == 0.0 {
        return 0.0;
    }
    warm.signum() * warm.abs() * det::exp(predicted_log_ratio)
}

/// Whether the sample at `index` is held out (every 5th): never seen by
/// SGD, used for the residual statistics that gate prediction trust.
pub(crate) fn is_holdout(index: usize) -> bool {
    index.is_multiple_of(5)
}

/// One training sample: a feature vector, its log-ratio target, and the
/// bookkeeping needed to compute linear-domain residuals afterwards.
#[derive(Debug, Clone)]
pub struct ArcSample {
    /// Cell the entry came from.
    pub cell: String,
    /// Feature vector of length [`N_FEATURES`] (unnormalized).
    pub features: Vec<f64>,
    /// Training target: `ln(|cold|/|warm|)`.
    pub target: f64,
    /// Warm-corner anchor value.
    pub warm: f64,
    /// Cold-corner ground truth (signed).
    pub cold: f64,
}

/// A full training dataset: every table entry of every probe cell present
/// in both the warm and cold libraries.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Samples in deterministic (cold-library cell order, arc order,
    /// row-major grid order) sequence.
    pub samples: Vec<ArcSample>,
}

impl Dataset {
    /// Build the dataset from a characterized warm library and a cold probe
    /// library (the same cells SPICE-characterized at the target corner).
    /// Cells missing from either side, and zero-anchor entries, are skipped.
    #[must_use]
    pub fn build(
        warm: &Library,
        cold_probe: &Library,
        warm_sc: &CornerScalars,
        cold_sc: &CornerScalars,
    ) -> Dataset {
        let mut samples = Vec::new();
        for cold_cell in cold_probe.cells() {
            let Ok(warm_cell) = warm.cell(&cold_cell.name) else {
                continue;
            };
            let desc = CellDescriptor::for_cell(warm_cell);
            let mut push_table = |wt: &Lut2, ct: &Lut2, kind: TableKind, edge: Edge| {
                sample_table(
                    &mut samples,
                    &cold_cell.name,
                    wt,
                    ct,
                    &desc,
                    warm_sc,
                    cold_sc,
                    kind,
                    edge,
                );
            };
            for (wa, ca) in warm_cell.arcs.iter().zip(&cold_cell.arcs) {
                let (dk, tk) = match wa.kind {
                    ArcKind::Setup | ArcKind::Hold => {
                        (TableKind::Constraint, TableKind::Constraint)
                    }
                    ArcKind::Combinational | ArcKind::ClockToQ => {
                        (TableKind::Delay, TableKind::Transition)
                    }
                };
                push_table(&wa.cell_rise, &ca.cell_rise, dk, Edge::Rise);
                push_table(&wa.cell_fall, &ca.cell_fall, dk, Edge::Fall);
                push_table(&wa.rise_transition, &ca.rise_transition, tk, Edge::Rise);
                push_table(&wa.fall_transition, &ca.fall_transition, tk, Edge::Fall);
            }
            for (wp, cp) in warm_cell.power_arcs.iter().zip(&cold_cell.power_arcs) {
                push_table(
                    &wp.rise_energy,
                    &cp.rise_energy,
                    TableKind::Energy,
                    Edge::Rise,
                );
                push_table(
                    &wp.fall_energy,
                    &cp.fall_energy,
                    TableKind::Energy,
                    Edge::Fall,
                );
            }
        }
        Dataset { samples }
    }

    /// Training-split samples (4 of every 5, by sample index).
    #[must_use]
    pub fn train_split(&self) -> Vec<&ArcSample> {
        self.samples
            .iter()
            .enumerate()
            .filter(|(i, _)| !is_holdout(*i))
            .map(|(_, s)| s)
            .collect()
    }

    /// FNV-64 digest over the exact bit patterns of every feature and
    /// target, keying the training checkpoint store: a changed dataset must
    /// never resume another dataset's model.
    #[must_use]
    pub fn content_hash(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in &self.samples {
            for &f in &s.features {
                mix(f.to_bits());
            }
            mix(s.target.to_bits());
        }
        format!("{h:016x}")
    }
}

#[allow(clippy::too_many_arguments)]
fn sample_table(
    out: &mut Vec<ArcSample>,
    cell: &str,
    warm_t: &Lut2,
    cold_t: &Lut2,
    desc: &CellDescriptor,
    warm_sc: &CornerScalars,
    cold_sc: &CornerScalars,
    kind: TableKind,
    edge: Edge,
) {
    let slews = warm_t.index1();
    let loads = warm_t.index2();
    if cold_t.index1().len() != slews.len() || cold_t.index2().len() != loads.len() {
        return;
    }
    for (i, &slew) in slews.iter().enumerate() {
        for (j, &load) in loads.iter().enumerate() {
            let warm = warm_t.values()[i * loads.len() + j];
            let cold = cold_t.values()[i * loads.len() + j];
            if warm == 0.0 || !warm.is_finite() || !cold.is_finite() {
                continue;
            }
            out.push(ArcSample {
                cell: cell.to_string(),
                features: entry_features(warm, slew, load, desc, warm_sc, cold_sc, kind, edge),
                target: log_ratio(warm, cold),
                warm,
                cold,
            });
        }
    }
}

/// Per-feature min-max normalizer, fitted on the full dataset and stored
/// with the model so inference applies the identical affine map.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    /// Per-feature minima.
    pub lo: Vec<f64>,
    /// Per-feature maxima.
    pub hi: Vec<f64>,
}

impl Normalizer {
    /// Fit over a set of feature vectors. Degenerate (constant) features
    /// normalize to 0.
    #[must_use]
    pub fn fit<'a, I: IntoIterator<Item = &'a Vec<f64>>>(rows: I) -> Normalizer {
        let mut lo = vec![f64::INFINITY; N_FEATURES];
        let mut hi = vec![f64::NEG_INFINITY; N_FEATURES];
        for row in rows {
            for (k, &v) in row.iter().enumerate() {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
        for k in 0..N_FEATURES {
            if !lo[k].is_finite() || !hi[k].is_finite() {
                lo[k] = 0.0;
                hi[k] = 0.0;
            }
        }
        Normalizer { lo, hi }
    }

    /// Map a raw feature vector into `[0, 1]^F`.
    #[must_use]
    pub fn normalize(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(k, &v)| {
                let span = self.hi[k] - self.lo[k];
                if span > 0.0 {
                    (v - self.lo[k]) / span
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Invert [`Normalizer::normalize`] (degenerate features return their
    /// fitted constant).
    #[must_use]
    pub fn denormalize(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(k, &v)| {
                let span = self.hi[k] - self.lo[k];
                if span > 0.0 {
                    self.lo[k] + v * span
                } else {
                    self.lo[k]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_ratio_round_trips_through_apply() {
        for &(w, c) in &[(1e-12, 2e-12), (5e-15, 1e-15), (-3e-12, -6e-12), (1.0, 1.0)] {
            let r = log_ratio(w, c);
            let back = apply_ratio(w, r);
            assert!(
                (back.abs() - c.abs()).abs() <= 1e-12 * c.abs(),
                "{w} -> {c}: got {back}"
            );
            assert_eq!(back.signum(), w.signum());
        }
        assert_eq!(apply_ratio(0.0, 3.0), 0.0);
    }

    #[test]
    fn normalizer_maps_into_unit_interval_and_inverts() {
        let rows = vec![
            vec![1.0; N_FEATURES],
            vec![3.0; N_FEATURES],
            vec![2.0; N_FEATURES],
        ];
        let n = Normalizer::fit(&rows);
        let z = n.normalize(&rows[2]);
        assert!(z.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let back = n.denormalize(&z);
        for (a, b) in back.iter().zip(&rows[2]) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_feature_normalizes_to_zero() {
        let rows = vec![vec![7.0; N_FEATURES], vec![7.0; N_FEATURES]];
        let n = Normalizer::fit(&rows);
        let z = n.normalize(&rows[0]);
        assert!(z.iter().all(|&v| v == 0.0));
        assert!(n.denormalize(&z).iter().all(|&v| v == 7.0));
    }
}
