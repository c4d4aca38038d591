//! Cross-temperature sigma-transfer head: predict a corner's LVF sigma
//! tables from another corner's Monte-Carlo moments instead of paying a
//! full SPICE-MC sweep at every corner.
//!
//! Cryogenic variation is *relatively* larger than room-temperature
//! variation but strongly correlated with it cell by cell (both are
//! dominated by the same threshold-spread mechanisms). The head fits a
//! single log-ratio between the two corners' relative sigmas on a probe
//! population that was SPICE-MC'd at both, then maps the anchor corner's
//! per-entry relative sigma onto the target corner's nominal tables.
//! Cells the head cannot cover (no anchor sigma, incongruent grids) are
//! returned as a fallback list for per-cell SPICE-MC.

use serde::{Deserialize, Serialize};

use cryo_liberty::{ArcKind, ArcSigma, Cell, Library, Lut2};

/// Mean of a table's entries.
fn table_mean(t: &Lut2) -> f64 {
    let vals = t.values();
    if vals.is_empty() {
        return 0.0;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Per-cell relative sigma: mean delay-sigma over mean delay, pooled over
/// delay arcs that carry LVF tables. `None` when the cell has no usable
/// (sigma, delay) pair.
#[must_use]
pub fn relative_sigma(cell: &Cell) -> Option<f64> {
    let mut sigma_sum = 0.0;
    let mut delay_sum = 0.0;
    let mut n = 0usize;
    for arc in &cell.arcs {
        if !matches!(arc.kind, ArcKind::Combinational | ArcKind::ClockToQ) {
            continue;
        }
        let Some(sig) = &arc.sigma else { continue };
        sigma_sum += table_mean(&sig.cell_rise) + table_mean(&sig.cell_fall);
        delay_sum += table_mean(&arc.cell_rise) + table_mean(&arc.cell_fall);
        n += 1;
    }
    (n > 0 && delay_sum > 0.0).then(|| sigma_sum / delay_sum)
}

/// A fitted cross-corner sigma-transfer model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SigmaTransfer {
    /// Mean of `ln(rel_sigma_target / rel_sigma_anchor)` over the probe
    /// cells. Positive when the target corner is relatively noisier than
    /// the anchor (the expected cryogenic ordering).
    pub log_ratio: f64,
    /// Probe cells the fit pooled.
    pub probes: usize,
}

impl SigmaTransfer {
    /// Fit the transfer from an anchor-corner LVF library and a probe LVF
    /// library at the target corner (both SPICE-MC'd). `None` when no
    /// cell carries usable sigma at both corners.
    #[must_use]
    pub fn fit(anchor: &Library, target_probe: &Library) -> Option<Self> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for cell in target_probe.cells() {
            let Ok(anchor_cell) = anchor.cell(&cell.name) else {
                continue;
            };
            let (Some(rt), Some(ra)) = (relative_sigma(cell), relative_sigma(anchor_cell)) else {
                continue;
            };
            if rt > 0.0 && ra > 0.0 {
                sum += (rt / ra).ln();
                n += 1;
            }
        }
        (n > 0).then(|| Self {
            log_ratio: sum / n as f64,
            probes: n,
        })
    }

    /// Multiplicative relative-sigma ratio `target / anchor`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.log_ratio.exp()
    }

    /// Predict sigma tables for every cell of a nominal target-corner
    /// library from the anchor corner's LVF tables: per-entry relative
    /// sigma from the anchor, scaled by the fitted ratio, applied to the
    /// target's nominal tables. Returns the predicted library and the
    /// names of cells the head could not cover — those need per-cell
    /// SPICE-MC fallback.
    #[must_use]
    pub fn apply(&self, target_nominal: &Library, anchor: &Library) -> (Library, Vec<String>) {
        let mut out = target_nominal.clone();
        let mut fallback = Vec::new();
        let ratio = self.ratio();
        for cell in target_nominal.cells() {
            if cell.arcs.is_empty() {
                // Tie cells and the like carry no timing arcs: nothing to
                // predict and nothing for a SPICE-MC fallback to measure.
                continue;
            }
            let anchor_sigma = anchor.cell(&cell.name).ok().filter(|a| {
                a.arcs.len() == cell.arcs.len() && a.arcs.iter().any(|arc| arc.sigma.is_some())
            });
            let Some(anchor_cell) = anchor_sigma else {
                fallback.push(cell.name.clone());
                continue;
            };
            let mut predicted = cell.clone();
            for (arc, anchor_arc) in predicted.arcs.iter_mut().zip(&anchor_cell.arcs) {
                let Some(sig) = &anchor_arc.sigma else {
                    continue;
                };
                arc.sigma = Some(ArcSigma {
                    cell_rise: transfer_table(
                        &arc.cell_rise,
                        &anchor_arc.cell_rise,
                        &sig.cell_rise,
                        ratio,
                    ),
                    cell_fall: transfer_table(
                        &arc.cell_fall,
                        &anchor_arc.cell_fall,
                        &sig.cell_fall,
                        ratio,
                    ),
                    rise_transition: transfer_table(
                        &arc.rise_transition,
                        &anchor_arc.rise_transition,
                        &sig.rise_transition,
                        ratio,
                    ),
                    fall_transition: transfer_table(
                        &arc.fall_transition,
                        &anchor_arc.fall_transition,
                        &sig.fall_transition,
                        ratio,
                    ),
                });
            }
            out.add_cell(predicted);
        }
        (out, fallback)
    }
}

/// Map an anchor (nominal, sigma) table pair onto a target nominal table:
/// per-entry relative sigma scaled by `ratio`, or the anchor's scalar
/// mean relative sigma when the grids are not congruent. Entries are
/// clamped non-negative so the result always passes the sigma audits.
fn transfer_table(
    target_nominal: &Lut2,
    anchor_nominal: &Lut2,
    anchor_sigma: &Lut2,
    ratio: f64,
) -> Lut2 {
    let congruent = anchor_nominal.values().len() == anchor_sigma.values().len()
        && anchor_nominal.values().len() == target_nominal.values().len();
    let values: Vec<f64> = if congruent {
        target_nominal
            .values()
            .iter()
            .zip(anchor_nominal.values().iter().zip(anchor_sigma.values()))
            .map(|(&t, (&a, &s))| {
                let rel = if a > 0.0 { s / a } else { 0.0 };
                (t * rel * ratio).max(0.0)
            })
            .collect()
    } else {
        let a = table_mean(anchor_nominal);
        let rel = if a > 0.0 {
            table_mean(anchor_sigma) / a
        } else {
            0.0
        };
        target_nominal
            .values()
            .iter()
            .map(|&t| (t * rel * ratio).max(0.0))
            .collect()
    };
    Lut2::new(
        target_nominal.index1().to_vec(),
        target_nominal.index2().to_vec(),
        values,
    )
    .unwrap_or_else(|_| Lut2::constant(0.0))
}

/// Decide, per cell, whether the transferred prediction is trustworthy:
/// a predicted LVF cell whose relative sigma is wildly off the fitted
/// band (or missing entirely) goes to SPICE-MC fallback. Returns cells
/// whose predicted relative sigma deviates from `expected_rel` by more
/// than `tolerance` (relative).
#[must_use]
pub fn residual_outliers(predicted: &Library, expected_rel: f64, tolerance: f64) -> Vec<String> {
    predicted
        .cells()
        .iter()
        .filter_map(|cell| {
            let rel = relative_sigma(cell)?;
            let deviation = (rel - expected_rel).abs() / expected_rel.max(f64::MIN_POSITIVE);
            (deviation > tolerance).then(|| cell.name.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryo_liberty::{LogicFunction, Pin, TimingArc, TimingSense};

    fn table(base: f64) -> Lut2 {
        Lut2::new(
            vec![1e-12, 10e-12],
            vec![1e-15, 4e-15],
            vec![base, base * 1.5, base * 2.0, base * 3.0],
        )
        .unwrap()
    }

    fn cell(name: &str, base: f64, rel_sigma: Option<f64>) -> Cell {
        let t = table(base);
        let sigma = rel_sigma.map(|r| ArcSigma {
            cell_rise: t.scaled(r),
            cell_fall: t.scaled(r),
            rise_transition: t.scaled(r),
            fall_transition: t.scaled(r),
        });
        Cell {
            name: name.into(),
            area: 0.05,
            pins: vec![
                Pin::input("A", 1e-15),
                Pin::output("Y", LogicFunction::from_eval(&["A"], |b| b & 1 == 0)),
            ],
            arcs: vec![TimingArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                kind: ArcKind::Combinational,
                sense: TimingSense::NegativeUnate,
                cell_rise: t.clone(),
                cell_fall: t.clone(),
                rise_transition: t.clone(),
                fall_transition: t,
                sigma,
            }],
            power_arcs: vec![],
            leakage_states: vec![(0, 1e-9)],
            ff: None,
            drive: 1,
        }
    }

    fn lib(name: &str, temp: f64, cells: Vec<Cell>) -> Library {
        let mut l = Library::new(name, temp, 0.7);
        for c in cells {
            l.add_cell(c);
        }
        l
    }

    #[test]
    fn relative_sigma_reads_the_scale_factor() {
        let c = cell("INVx1", 1e-11, Some(0.06));
        let rel = relative_sigma(&c).unwrap();
        assert!((rel - 0.06).abs() < 1e-12, "rel = {rel}");
        assert_eq!(relative_sigma(&cell("INVx1", 1e-11, None)), None);
    }

    #[test]
    fn fit_recovers_the_cross_corner_ratio() {
        let warm = lib(
            "warm",
            300.0,
            vec![
                cell("INVx1", 1e-11, Some(0.05)),
                cell("NAND2x1", 2e-11, Some(0.05)),
            ],
        );
        let cold = lib(
            "cold",
            10.0,
            vec![
                cell("INVx1", 0.8e-11, Some(0.10)),
                cell("NAND2x1", 1.6e-11, Some(0.10)),
            ],
        );
        let fit = SigmaTransfer::fit(&warm, &cold).unwrap();
        assert_eq!(fit.probes, 2);
        assert!((fit.ratio() - 2.0).abs() < 1e-9, "ratio = {}", fit.ratio());
    }

    #[test]
    fn fit_is_none_without_overlapping_sigma() {
        let warm = lib("warm", 300.0, vec![cell("INVx1", 1e-11, None)]);
        let cold = lib("cold", 10.0, vec![cell("INVx1", 0.8e-11, Some(0.1))]);
        assert!(SigmaTransfer::fit(&warm, &cold).is_none());
    }

    #[test]
    fn apply_predicts_sigma_and_routes_uncovered_cells_to_fallback() {
        let anchor = lib("warm", 300.0, vec![cell("INVx1", 1e-11, Some(0.05))]);
        let nominal = lib(
            "cold",
            10.0,
            vec![cell("INVx1", 0.8e-11, None), cell("XOR2x1", 3e-11, None)],
        );
        let transfer = SigmaTransfer {
            log_ratio: 2.0f64.ln(),
            probes: 1,
        };
        // A nominal library resumed from a stage blob has been through JSON.
        let resumed: Library =
            serde_json::from_str(&serde_json::to_string(&nominal).unwrap()).unwrap();
        for nominal in [&nominal, &resumed] {
            let (predicted, fallback) = transfer.apply(nominal, &anchor);
            assert_eq!(fallback, vec!["XOR2x1".to_string()]);
            let inv = predicted.cell("INVx1").unwrap();
            let rel = relative_sigma(inv).unwrap();
            // Anchor rel sigma 0.05 doubled by the fitted ratio.
            assert!((rel - 0.10).abs() < 1e-9, "rel = {rel}");
            // The uncovered cell keeps its nominal, sigma-less tables.
            assert!(predicted.cell("XOR2x1").unwrap().arcs[0].sigma.is_none());
            // Predicted cells replace their nominal entries.
            let names: Vec<&str> = predicted.cells().iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["INVx1", "XOR2x1"]);
            assert_eq!(predicted.len(), nominal.len());
        }
    }

    #[test]
    fn residual_outliers_flags_cells_off_the_fitted_band() {
        let ok = cell("INVx1", 1e-11, Some(0.10));
        let off = cell("NAND2x1", 1e-11, Some(0.50));
        let predicted = lib("cold", 10.0, vec![ok, off]);
        let outliers = residual_outliers(&predicted, 0.10, 0.5);
        assert_eq!(outliers, vec!["NAND2x1".to_string()]);
    }
}
