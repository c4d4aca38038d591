//! Characterized library corners and their statistics.

use serde::{Deserialize, Serialize};

use crate::cell::{ArcKind, Cell};
use crate::provenance::Provenance;
use crate::{LibertyError, Result};

/// A characterized library corner: a set of cells at one (temperature,
/// voltage) operating condition.
// Declaration order is the wire order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Library {
    /// Library name, e.g. `cryo5_tt_0p70v_10k`.
    pub name: String,
    /// Characterization temperature, kelvin.
    pub temperature: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    cells: Vec<Cell>,
    /// Where the tables came from: SPICE (the default) or a trained
    /// surrogate. Characterized corners omit the field on serialization,
    /// so pre-surrogate caches and golden snapshots stay byte-identical.
    #[serde(default, skip_serializing_if = "Provenance::is_characterized")]
    pub provenance: Provenance,
}

impl Library {
    /// Create an empty library corner.
    #[must_use]
    pub fn new(name: &str, temperature: f64, vdd: f64) -> Self {
        Self {
            name: name.to_string(),
            temperature,
            vdd,
            cells: Vec::new(),
            provenance: Provenance::default(),
        }
    }

    /// Add a cell. Replaces any existing cell of the same name.
    pub fn add_cell(&mut self, cell: Cell) {
        match self.cells.iter_mut().find(|c| c.name == cell.name) {
            Some(slot) => *slot = cell,
            None => self.cells.push(cell),
        }
    }

    /// Cells in insertion order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Look up a cell by name.
    ///
    /// # Errors
    ///
    /// [`LibertyError::UnknownCell`] when absent.
    pub fn cell(&self, name: &str) -> Result<&Cell> {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| LibertyError::UnknownCell {
                name: name.to_string(),
            })
    }

    /// Every propagation delay stored in the library — one value per
    /// (cell, arc, edge, slew, load) combination. This is the population
    /// behind the paper's Fig. 5 histogram.
    #[must_use]
    pub fn all_delays(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for cell in &self.cells {
            for arc in &cell.arcs {
                if matches!(arc.kind, ArcKind::Setup | ArcKind::Hold) {
                    continue;
                }
                out.extend_from_slice(arc.cell_rise.values());
                out.extend_from_slice(arc.cell_fall.values());
            }
        }
        out
    }

    /// Histogram of all delays with the given bin width (seconds).
    #[must_use]
    pub fn delay_histogram(&self, bin_width: f64) -> DelayHistogram {
        let delays = self.all_delays();
        let max = delays.iter().copied().fold(0.0, f64::max);
        let n_bins = ((max / bin_width).ceil() as usize + 1).max(1);
        let mut counts = vec![0usize; n_bins];
        for d in &delays {
            let bin = ((d / bin_width) as usize).min(n_bins - 1);
            counts[bin] += 1;
        }
        DelayHistogram {
            bin_width,
            counts,
            total: delays.len(),
        }
    }

    /// Whether a cell's stored tables are unusable: present but empty,
    /// shape-inconsistent, or non-finite. Such cells can only arrive
    /// through deserialization (the `Lut2` constructor rejects them) or a
    /// truncated ingest, and counting them as "covered" would let a
    /// degenerate library sail through coverage enforcement. Arc-less
    /// cells (ties) are legitimately table-free and are not degenerate.
    fn cell_is_degenerate(cell: &Cell) -> bool {
        cell.arcs.iter().any(|arc| {
            [
                &arc.cell_rise,
                &arc.cell_fall,
                &arc.rise_transition,
                &arc.fall_transition,
            ]
            .into_iter()
            .any(|t| {
                t.values().is_empty()
                    || t.values().len() != t.index1().len() * t.index2().len()
                    || t.values().iter().any(|v| !v.is_finite())
            })
        })
    }

    /// The expected cells that are present but carry degenerate tables, in
    /// input order.
    #[must_use]
    pub fn degenerate_cells<S: AsRef<str>>(&self, expected: &[S]) -> Vec<String> {
        expected
            .iter()
            .map(AsRef::as_ref)
            .filter(|n| self.cell(n).is_ok_and(Self::cell_is_degenerate))
            .map(str::to_string)
            .collect()
    }

    /// Fraction of `expected` cell names this library actually contains
    /// with usable tables, in `[0, 1]`. Cells whose tables are present but
    /// empty/degenerate do not count. An empty expectation counts as full
    /// coverage.
    #[must_use]
    pub fn coverage<S: AsRef<str>>(&self, expected: &[S]) -> f64 {
        if expected.is_empty() {
            return 1.0;
        }
        let present = expected
            .iter()
            .filter(|n| {
                self.cell(n.as_ref())
                    .is_ok_and(|c| !Self::cell_is_degenerate(c))
            })
            .count();
        present as f64 / expected.len() as f64
    }

    /// The expected cell names this library is missing, in input order.
    #[must_use]
    pub fn missing_cells<S: AsRef<str>>(&self, expected: &[S]) -> Vec<String> {
        expected
            .iter()
            .map(AsRef::as_ref)
            .filter(|n| self.cell(n).is_err())
            .map(str::to_string)
            .collect()
    }

    /// Check that coverage of `expected` meets `floor` (a fraction in
    /// `[0, 1]`). Cells with degenerate tables count against coverage and
    /// are reported alongside the truly missing ones.
    ///
    /// # Errors
    ///
    /// [`LibertyError::IncompleteLibrary`] naming the missing and
    /// degenerate cells when coverage falls below the floor.
    pub fn validate_coverage<S: AsRef<str>>(&self, expected: &[S], floor: f64) -> Result<()> {
        let coverage = self.coverage(expected);
        if coverage < floor {
            let mut missing = self.missing_cells(expected);
            missing.extend(self.degenerate_cells(expected));
            return Err(LibertyError::IncompleteLibrary {
                name: self.name.clone(),
                coverage,
                floor,
                missing,
            });
        }
        Ok(())
    }

    /// Aggregate statistics for reporting.
    #[must_use]
    pub fn stats(&self) -> LibraryStats {
        let delays = self.all_delays();
        let n = delays.len().max(1) as f64;
        let mean = delays.iter().sum::<f64>() / n;
        let max = delays.iter().copied().fold(0.0, f64::max);
        let leakage: f64 = self.cells.iter().map(Cell::average_leakage).sum();
        LibraryStats {
            cell_count: self.cells.len(),
            arc_delay_count: delays.len(),
            mean_delay: mean,
            max_delay: max,
            total_avg_leakage: leakage,
        }
    }
}

/// Histogram of every delay value in a library (Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayHistogram {
    /// Bin width in seconds.
    pub bin_width: f64,
    /// Count per bin, starting at delay 0.
    pub counts: Vec<usize>,
    /// Total number of samples.
    pub total: usize,
}

impl DelayHistogram {
    /// Fraction of samples shared with `other` (histogram intersection /
    /// total) — the "large overlap" metric for Fig. 5.
    #[must_use]
    pub fn overlap(&self, other: &DelayHistogram) -> f64 {
        assert!(
            (self.bin_width - other.bin_width).abs() < f64::EPSILON,
            "histograms must share a bin width"
        );
        let n = self.counts.len().max(other.counts.len());
        let mut inter = 0usize;
        for i in 0..n {
            let a = self.counts.get(i).copied().unwrap_or(0);
            let b = other.counts.get(i).copied().unwrap_or(0);
            inter += a.min(b);
        }
        inter as f64 / self.total.max(other.total).max(1) as f64
    }
}

/// Aggregate library statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LibraryStats {
    /// Number of cells.
    pub cell_count: usize,
    /// Number of delay samples across all arcs and grid points.
    pub arc_delay_count: usize,
    /// Mean delay, seconds.
    pub mean_delay: f64,
    /// Maximum delay, seconds.
    pub max_delay: f64,
    /// Sum of average cell leakage, watts.
    pub total_avg_leakage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Pin, TimingArc, TimingSense};
    use crate::function::LogicFunction;
    use crate::table::Lut2;

    fn cell_with_delay(name: &str, delay: f64) -> Cell {
        let f = LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
        let d = Lut2::constant(delay);
        Cell {
            name: name.to_string(),
            area: 0.05,
            pins: vec![Pin::input("A", 0.4e-15), Pin::output("Y", f)],
            arcs: vec![TimingArc {
                related_pin: "A".into(),
                pin: "Y".into(),
                kind: ArcKind::Combinational,
                sense: TimingSense::NegativeUnate,
                cell_rise: d.clone(),
                cell_fall: d.clone(),
                rise_transition: d.clone(),
                fall_transition: d,
                sigma: None,
            }],
            power_arcs: vec![],
            leakage_states: vec![(0, 2e-9)],
            ff: None,
            drive: 1,
        }
    }

    fn lib() -> Library {
        let mut l = Library::new("test_lib", 300.0, 0.7);
        l.add_cell(cell_with_delay("INVx1", 5e-12));
        l.add_cell(cell_with_delay("INVx2", 3e-12));
        l
    }

    #[test]
    fn lookup_and_replace() {
        let mut l = lib();
        assert!(l.cell("INVx1").is_ok());
        assert!(matches!(
            l.cell("NOPE"),
            Err(LibertyError::UnknownCell { .. })
        ));
        l.add_cell(cell_with_delay("INVx1", 9e-12));
        assert_eq!(l.len(), 2, "replacement does not duplicate");
        assert_eq!(
            l.cell("INVx1").unwrap().arcs[0].cell_rise.lookup(0.0, 0.0),
            9e-12
        );
    }

    #[test]
    fn delay_population() {
        let l = lib();
        let d = l.all_delays();
        assert_eq!(d.len(), 4); // 2 cells × (rise + fall) × 1 grid point
        let stats = l.stats();
        assert_eq!(stats.cell_count, 2);
        assert!((stats.mean_delay - 4e-12).abs() < 1e-24);
        assert!((stats.max_delay - 5e-12).abs() < 1e-24);
        assert!((stats.total_avg_leakage - 4e-9).abs() < 1e-18);
    }

    #[test]
    fn histogram_counts_everything() {
        let l = lib();
        let h = l.delay_histogram(1e-12);
        assert_eq!(h.total, 4);
        assert_eq!(h.counts.iter().sum::<usize>(), 4);
        assert_eq!(h.counts[3], 2); // the two 3 ps samples
        assert_eq!(h.counts[5], 2); // the two 5 ps samples
    }

    #[test]
    fn identical_histograms_fully_overlap() {
        let l = lib();
        let h = l.delay_histogram(1e-12);
        assert!((h.overlap(&h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_tracks_expected_cells() {
        let l = lib();
        let expected = ["INVx1", "INVx2", "NANDx1", "NORx1"];
        assert!((l.coverage(&expected) - 0.5).abs() < 1e-12);
        assert_eq!(l.missing_cells(&expected), vec!["NANDx1", "NORx1"]);
        assert!(l.validate_coverage(&expected, 0.5).is_ok());
        let err = l.validate_coverage(&expected, 0.95).unwrap_err();
        match err {
            LibertyError::IncompleteLibrary {
                coverage, missing, ..
            } => {
                assert!((coverage - 0.5).abs() < 1e-12);
                assert_eq!(missing.len(), 2);
            }
            other => panic!("wrong error: {other}"),
        }
        let none: [&str; 0] = [];
        assert!((l.coverage(&none) - 1.0).abs() < 1e-12, "vacuous coverage");
    }

    #[test]
    fn degenerate_tables_count_against_coverage() {
        let mut l = lib();
        // An empty table can only arrive through serde, which bypasses the
        // Lut2 constructor — exactly what a truncated ingest produces.
        let empty: Lut2 = serde_json::from_str(r#"{"index1":[],"index2":[],"values":[]}"#).unwrap();
        let mut hollow = cell_with_delay("NANDx1", 4e-12);
        hollow.arcs[0].cell_rise = empty;
        l.add_cell(hollow);
        let expected = ["INVx1", "INVx2", "NANDx1"];
        assert!(
            (l.coverage(&expected) - 2.0 / 3.0).abs() < 1e-12,
            "present-but-degenerate must not count as covered"
        );
        assert_eq!(l.degenerate_cells(&expected), vec!["NANDx1"]);
        // The plain presence check still sees it, so the degenerate cell is
        // reported through validate_coverage, not missing_cells.
        assert!(l.missing_cells(&expected).is_empty());
        match l.validate_coverage(&expected, 0.95).unwrap_err() {
            LibertyError::IncompleteLibrary { missing, .. } => {
                assert_eq!(missing, vec!["NANDx1"]);
            }
            other => panic!("wrong error: {other}"),
        }
        // Tie-style cells with no arcs are not degenerate.
        let mut tie = cell_with_delay("TIEHI", 1e-12);
        tie.arcs.clear();
        l.add_cell(tie);
        assert!((l.coverage(&["TIEHI"]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip_reindexes() {
        let l = lib();
        let json = serde_json::to_string(&l).unwrap();
        let mut back: Library = serde_json::from_str(&json).unwrap();
        assert!(back.cell("INVx2").is_ok());
        assert_eq!(back.len(), 2);
        // A library read from JSON is fully usable as read: lookups see
        // its own names, and adding an existing name replaces the cell.
        assert!(back.missing_cells(&["INVx1", "INVx2"]).is_empty());
        back.add_cell(cell_with_delay("INVx1", 9e-12));
        assert_eq!(back.len(), 2, "replacement does not duplicate");
        let inv = back.cell("INVx1").unwrap();
        assert_eq!(inv.arcs[0].cell_rise.lookup(0.0, 0.0), 9e-12);
    }

    #[test]
    fn characterized_provenance_is_invisible_in_serialization() {
        // Byte-identity contract: a SPICE-characterized corner must
        // serialize exactly as the pre-surrogate format did, so cache
        // files and golden snapshots survive the field's introduction.
        let l = lib();
        let json = serde_json::to_string(&l).unwrap();
        assert!(
            !json.contains("provenance"),
            "characterized corners must omit provenance: {json}"
        );
        let back: Library = serde_json::from_str(&json).unwrap();
        assert_eq!(back.provenance, Provenance::Characterized);
    }

    #[test]
    fn predicted_provenance_round_trips() {
        let mut l = lib();
        l.provenance = Provenance::Predicted {
            model_hash: "0123456789abcdef".into(),
            residual: crate::provenance::ResidualStats {
                n_train: 100,
                n_holdout: 25,
                mean_abs_rel_err: 0.02,
                max_abs_rel_err: 0.09,
            },
        };
        let json = serde_json::to_string(&l).unwrap();
        assert!(json.contains("model_hash"));
        let back: Library = serde_json::from_str(&json).unwrap();
        assert_eq!(back.provenance, l.provenance);
        assert_eq!(back.len(), l.len());
    }
}
