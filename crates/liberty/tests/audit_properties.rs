//! Property-based tests on the NLDM audit: any physically-sane table is
//! accepted, and any single corrupted entry is flagged at exactly its
//! cell, arc, table, row, and column — nothing more, nothing less.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

use cryo_liberty::{
    audit_cell, ArcKind, AuditConfig, Cell, LogicFunction, Lut2, Pin, TimingArc, TimingSense,
};

/// Rebuild a table with `values` through serde, bypassing the
/// `Lut2::new` validation — the only route by which a non-finite entry
/// can reach a library, and exactly the silent-corruption path the
/// audit exists to catch.
fn table_via_serde(t: &Lut2, values: Vec<f64>) -> Lut2 {
    let v = Value::Object(vec![
        ("index1".to_string(), t.index1().to_vec().to_value()),
        ("index2".to_string(), t.index2().to_vec().to_value()),
        ("values".to_string(), values.to_value()),
    ]);
    Lut2::from_value(&v).unwrap()
}

/// A strictly monotone (in both axes) positive delay grid: base plus
/// per-row and per-column increments. This is the shape every healthy
/// characterized table has.
fn monotone_table(n1: usize, n2: usize, base: f64, row_step: f64, col_step: f64) -> Lut2 {
    let index1: Vec<f64> = (0..n1).map(|i| 1e-12 * (i + 1) as f64).collect();
    let index2: Vec<f64> = (0..n2).map(|i| 1e-15 * (i + 1) as f64).collect();
    let mut values = Vec::with_capacity(n1 * n2);
    for r in 0..n1 {
        for c in 0..n2 {
            values.push(base + row_step * r as f64 + col_step * c as f64);
        }
    }
    Lut2::new(index1, index2, values).unwrap()
}

fn cell_with_rise(rise: Lut2) -> Cell {
    let (n1, n2) = (rise.index1().len(), rise.index2().len());
    let clean = || monotone_table(n1, n2, 1e-12, 1e-13, 1e-13);
    let f = LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
    Cell {
        name: "INVx1".into(),
        area: 0.05,
        pins: vec![Pin::input("A", 1e-15), Pin::output("Y", f)],
        arcs: vec![TimingArc {
            related_pin: "A".into(),
            pin: "Y".into(),
            kind: ArcKind::Combinational,
            sense: TimingSense::NegativeUnate,
            cell_rise: rise,
            cell_fall: clean(),
            rise_transition: clean(),
            fall_transition: clean(),
            sigma: None,
        }],
        power_arcs: vec![],
        leakage_states: vec![(0, 1e-9)],
        ff: None,
        drive: 1,
    }
}

/// The coordinate suffix every finding must carry for exact attribution.
fn coord(r: usize, c: usize) -> String {
    format!("[{r},{c}]")
}

proptest! {
    /// Acceptance: whatever the grid size, base delay, or step sizes, a
    /// monotone positive table produces zero findings. The audit must not
    /// cry wolf on healthy libraries.
    #[test]
    fn monotone_tables_are_accepted(
        n1 in 2usize..6,
        n2 in 2usize..6,
        base in 1e-13f64..5e-11,
        row_step in 1e-14f64..1e-12,
        col_step in 1e-14f64..1e-12,
    ) {
        let cell = cell_with_rise(monotone_table(n1, n2, base, row_step, col_step));
        let rep = audit_cell("prop", &cell, &AuditConfig::default());
        prop_assert!(rep.is_clean(), "false positives: {:?}", rep.findings);
    }

    /// A single non-finite entry is flagged as exactly one `finite`
    /// finding at the perturbed coordinate.
    #[test]
    fn single_nonfinite_entry_is_flagged_at_its_coordinate(
        n1 in 2usize..6,
        n2 in 2usize..6,
        r_pick in 0usize..6,
        c_pick in 0usize..6,
        which in 0u8..3,
    ) {
        let (r, c) = (r_pick % n1, c_pick % n2);
        let t = monotone_table(n1, n2, 1e-12, 1e-13, 1e-13);
        let mut vals = t.values().to_vec();
        vals[r * n2 + c] = match which {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let bad = table_via_serde(&t, vals);
        let rep = audit_cell("prop", &cell_with_rise(bad), &AuditConfig::default());
        prop_assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        let f = &rep.findings[0];
        prop_assert_eq!(&f.invariant, "finite");
        prop_assert!(
            f.entity.ends_with(&format!("cell_rise{}", coord(r, c))),
            "wrong attribution: {}", f.entity
        );
        prop_assert_eq!(rep.offending_cells(), vec!["INVx1".to_string()]);
    }

    /// A single entry lowered below its left neighbor is flagged as
    /// exactly one `delay_monotone_load` finding at the dropped entry.
    #[test]
    fn single_monotone_drop_is_flagged_at_the_dropped_entry(
        n1 in 2usize..6,
        n2 in 2usize..6,
        r_pick in 0usize..6,
        c_pick in 0usize..6,
        factor in 0.05f64..0.5,
    ) {
        // The drop must have a left neighbor, so the column is >= 1.
        let (r, c) = (r_pick % n1, 1 + c_pick % (n2 - 1));
        let t = monotone_table(n1, n2, 1e-12, 1e-13, 1e-13);
        let mut vals = t.values().to_vec();
        // Still positive and finite — only the load-monotonicity breaks.
        vals[r * n2 + c] = vals[r * n2 + c - 1] * factor;
        let bad = Lut2::new(t.index1().to_vec(), t.index2().to_vec(), vals).unwrap();
        let rep = audit_cell("prop", &cell_with_rise(bad), &AuditConfig::default());
        prop_assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        let f = &rep.findings[0];
        prop_assert_eq!(&f.invariant, "delay_monotone_load");
        prop_assert!(
            f.entity.ends_with(&format!("cell_rise{}", coord(r, c))),
            "wrong attribution: {}", f.entity
        );
    }

    /// A single sign-flipped entry is flagged as `delay_positive` at the
    /// flipped coordinate, and every finding the flip induces (the flip
    /// also breaks load-monotonicity when it has a left neighbor) points
    /// at that same coordinate — attribution never bleeds onto healthy
    /// entries.
    #[test]
    fn single_sign_flip_attributes_only_the_flipped_entry(
        n1 in 2usize..6,
        n2 in 2usize..6,
        r_pick in 0usize..6,
        c_pick in 0usize..6,
    ) {
        let (r, c) = (r_pick % n1, c_pick % n2);
        let t = monotone_table(n1, n2, 1e-12, 1e-13, 1e-13);
        let mut vals = t.values().to_vec();
        vals[r * n2 + c] = -vals[r * n2 + c];
        let bad = Lut2::new(t.index1().to_vec(), t.index2().to_vec(), vals).unwrap();
        let rep = audit_cell("prop", &cell_with_rise(bad), &AuditConfig::default());
        prop_assert!(
            rep.findings.iter().any(|f| f.invariant == "delay_positive"),
            "{:?}", rep.findings
        );
        for f in &rep.findings {
            prop_assert!(
                f.entity.ends_with(&format!("cell_rise{}", coord(r, c))),
                "finding bled onto a healthy entry: {}", f.entity
            );
        }
    }
}
