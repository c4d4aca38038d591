//! Physical-invariant audits over NLDM libraries.
//!
//! The signoff firewall's library layer: every invariant a trustworthy
//! corner must satisfy — finite tables, positive delays and slews, delay
//! monotone non-decreasing in load, fully populated characterization
//! grids, and the cross-corner rule that a cell's 10 K delay stays within
//! a configurable band of its 300 K delay. Violations become structured
//! [`Finding`]s that name the exact entity (cell, arc, table, row,
//! column), the invariant, and the observed value against its bound —
//! the difference between "the run completed" and "the numbers can be
//! trusted".
//!
//! The types here are shared across the stack: `cryo-cells`, `cryo-sta`,
//! `cryo-power`, and `cryo-core` all report through [`AuditReport`], so
//! one machine-readable artifact covers the whole pipeline.

use serde::{Deserialize, Serialize};

use crate::cell::{ArcKind, Cell, TimingArc};
use crate::library::Library;
use crate::table::Lut2;

/// One invariant violation, attributed to the smallest entity that owns it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Pipeline stage whose audit produced the finding (`charlib300`,
    /// `sta10`, ...).
    pub stage: String,
    /// Offending entity, most-specific-first path:
    /// `<cell>`, `<cell>/<related>-><pin>/<table>`, or
    /// `<cell>/<related>-><pin>/<table>[<row>,<col>]`.
    pub entity: String,
    /// Invariant that failed (`finite`, `delay_positive`,
    /// `delay_monotone_load`, `grid_populated`, `cross_corner_band`, ...).
    pub invariant: String,
    /// Observed value, rendered as text so NaN/∞ survive JSON.
    pub observed: String,
    /// The bound the observation violated.
    pub bound: String,
}

impl Finding {
    /// Build a finding; `observed` is rendered with enough precision to
    /// reproduce the violation.
    #[must_use]
    pub fn new(stage: &str, entity: String, invariant: &str, observed: f64, bound: String) -> Self {
        Self {
            stage: stage.to_string(),
            entity,
            invariant: invariant.to_string(),
            observed: format!("{observed:e}"),
            bound,
        }
    }

    /// The cell that owns the entity (leading path component).
    #[must_use]
    pub fn cell(&self) -> &str {
        self.entity.split('/').next().unwrap_or(&self.entity)
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: {} violated (observed {}, bound {})",
            self.stage, self.entity, self.invariant, self.observed, self.bound
        )
    }
}

/// Machine-readable audit outcome, embedded in `CharReport`/`TimingReport`
/// and the supervised pipeline report so CI and golden tests can assert
/// "zero findings" on clean runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Open violations (post-repair for gated runs).
    pub findings: Vec<Finding>,
    /// Cells whose violations were repaired by targeted
    /// re-characterization (Gate mode).
    pub repaired: Vec<String>,
}

impl AuditReport {
    /// True when the report carries no findings and no repairs — the state
    /// a clean run must serialize as (the field is omitted entirely, so
    /// clean artifacts stay byte-identical to the pre-audit pipeline).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.repaired.is_empty()
    }

    /// Append a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.findings.extend(other.findings);
        self.repaired.extend(other.repaired);
    }

    /// Distinct offending cells in first-seen order — the quarantine set
    /// for targeted re-characterization.
    #[must_use]
    pub fn offending_cells(&self) -> Vec<String> {
        let mut cells: Vec<String> = Vec::new();
        for f in &self.findings {
            let c = f.cell().to_string();
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        cells
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} finding(s), {} cell(s) repaired",
            self.findings.len(),
            self.repaired.len()
        )
    }
}

/// Tunable bounds for the library audits.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Relative slack tolerated before a delay decrease across adjacent
    /// loads counts as non-monotone (characterized tables carry measurement
    /// noise; a signoff tool must not cry wolf over half a femtosecond).
    pub monotone_rel_tol: f64,
    /// Expected `(slew_points, load_points)` grid for propagation arcs;
    /// `None` skips the shape check (used for hand-built test libraries).
    pub expected_grid: Option<(usize, usize)>,
    /// Allowed band for `mean_delay(10 K) / mean_delay(300 K)` per cell.
    pub cross_corner_band: (f64, f64),
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            monotone_rel_tol: 0.02,
            expected_grid: None,
            cross_corner_band: (0.5, 2.0),
        }
    }
}

/// What a table's values are allowed to look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableRole {
    /// Propagation delay: finite, positive, monotone in load.
    Delay,
    /// Output transition: finite, positive.
    Transition,
    /// Setup/hold margin: finite (legitimately negative sometimes).
    Constraint,
    /// Switching energy: finite.
    Energy,
}

fn entity_for(cell: &str, arc: &TimingArc, table: &str) -> String {
    format!("{cell}/{}->{}/{table}", arc.related_pin, arc.pin)
}

/// Audit one table under `role`, appending findings to `out`.
fn audit_table(
    stage: &str,
    entity: &str,
    t: &Lut2,
    role: TableRole,
    cfg: &AuditConfig,
    expect_grid: bool,
    out: &mut AuditReport,
) {
    let (n1, n2) = (t.index1().len(), t.index2().len());
    // Degenerate shapes can only arrive through serde (the constructor
    // rejects them) — exactly the silent-corruption path the audit exists
    // to catch.
    if t.values().is_empty() || t.values().len() != n1 * n2 || n1 == 0 || n2 == 0 {
        out.push(Finding::new(
            stage,
            entity.to_string(),
            "grid_populated",
            t.values().len() as f64,
            format!("{n1}x{n2} values"),
        ));
        return;
    }
    if expect_grid {
        if let Some((es, el)) = cfg.expected_grid {
            if (n1, n2) != (es, el) {
                out.push(Finding::new(
                    stage,
                    entity.to_string(),
                    "grid_populated",
                    (n1 * n2) as f64,
                    format!("{es}x{el} grid"),
                ));
            }
        }
    }
    for r in 0..n1 {
        for c in 0..n2 {
            let v = t.values()[r * n2 + c];
            if !v.is_finite() {
                out.push(Finding::new(
                    stage,
                    format!("{entity}[{r},{c}]"),
                    "finite",
                    v,
                    "finite".to_string(),
                ));
                continue;
            }
            match role {
                TableRole::Delay if v <= 0.0 => out.push(Finding::new(
                    stage,
                    format!("{entity}[{r},{c}]"),
                    "delay_positive",
                    v,
                    "> 0".to_string(),
                )),
                TableRole::Transition if v <= 0.0 => out.push(Finding::new(
                    stage,
                    format!("{entity}[{r},{c}]"),
                    "slew_positive",
                    v,
                    "> 0".to_string(),
                )),
                _ => {}
            }
        }
    }
    // Delay monotone non-decreasing in load: more capacitance can never
    // make a gate faster. The offending entry is the one that *dropped*
    // (right element of the violating pair).
    if role == TableRole::Delay && n2 > 1 {
        for r in 0..n1 {
            for c in 1..n2 {
                let prev = t.values()[r * n2 + c - 1];
                let v = t.values()[r * n2 + c];
                if !(prev.is_finite() && v.is_finite()) {
                    continue;
                }
                if v < prev * (1.0 - cfg.monotone_rel_tol) {
                    out.push(Finding::new(
                        stage,
                        format!("{entity}[{r},{c}]"),
                        "delay_monotone_load",
                        v,
                        format!(
                            ">= {:e} (load-monotone)",
                            prev * (1.0 - cfg.monotone_rel_tol)
                        ),
                    ));
                }
            }
        }
    }
}

/// Audit one LVF sigma table against its nominal sibling: every sigma
/// must be finite and non-negative (zero is legitimate — a die population
/// can collapse), and the sigma grid must be congruent with the nominal
/// grid (same slew/load axes), or lookups would silently interpolate
/// variation at points the nominal table never saw.
fn audit_sigma_table(
    stage: &str,
    entity: &str,
    sigma: &Lut2,
    nominal: &Lut2,
    out: &mut AuditReport,
) {
    let (n1, n2) = (sigma.index1().len(), sigma.index2().len());
    if sigma.values().is_empty() || sigma.values().len() != n1 * n2 || n1 == 0 || n2 == 0 {
        out.push(Finding::new(
            stage,
            entity.to_string(),
            "grid_populated",
            sigma.values().len() as f64,
            format!("{n1}x{n2} values"),
        ));
        return;
    }
    if sigma.index1() != nominal.index1() || sigma.index2() != nominal.index2() {
        out.push(Finding::new(
            stage,
            entity.to_string(),
            "sigma_grid_congruent",
            (n1 * n2) as f64,
            format!(
                "{}x{} grid of the nominal table",
                nominal.index1().len(),
                nominal.index2().len()
            ),
        ));
    }
    for r in 0..n1 {
        for c in 0..n2 {
            let v = sigma.values()[r * n2 + c];
            if !v.is_finite() {
                out.push(Finding::new(
                    stage,
                    format!("{entity}[{r},{c}]"),
                    "sigma_finite",
                    v,
                    "finite".to_string(),
                ));
            } else if v < 0.0 {
                out.push(Finding::new(
                    stage,
                    format!("{entity}[{r},{c}]"),
                    "sigma_nonneg",
                    v,
                    ">= 0".to_string(),
                ));
            }
        }
    }
}

/// Audit every table of one cell.
#[must_use]
pub fn audit_cell(stage: &str, cell: &Cell, cfg: &AuditConfig) -> AuditReport {
    let mut out = AuditReport::default();
    for arc in &cell.arcs {
        if let Some(sig) = &arc.sigma {
            for (name, s, nom) in [
                ("ocv_sigma_cell_rise", &sig.cell_rise, &arc.cell_rise),
                ("ocv_sigma_cell_fall", &sig.cell_fall, &arc.cell_fall),
                (
                    "ocv_sigma_rise_transition",
                    &sig.rise_transition,
                    &arc.rise_transition,
                ),
                (
                    "ocv_sigma_fall_transition",
                    &sig.fall_transition,
                    &arc.fall_transition,
                ),
            ] {
                audit_sigma_table(stage, &entity_for(&cell.name, arc, name), s, nom, &mut out);
            }
        }
        let (delay_role, expect_grid) = match arc.kind {
            ArcKind::Combinational | ArcKind::ClockToQ => (TableRole::Delay, true),
            ArcKind::Setup | ArcKind::Hold => (TableRole::Constraint, false),
        };
        for (name, t, role) in [
            ("cell_rise", &arc.cell_rise, delay_role),
            ("cell_fall", &arc.cell_fall, delay_role),
            (
                "rise_transition",
                &arc.rise_transition,
                TableRole::Transition,
            ),
            (
                "fall_transition",
                &arc.fall_transition,
                TableRole::Transition,
            ),
        ] {
            // Constraint arcs leave their transition tables unused; only
            // finiteness matters there.
            let role = if delay_role == TableRole::Constraint {
                TableRole::Constraint
            } else {
                role
            };
            audit_table(
                stage,
                &entity_for(&cell.name, arc, name),
                t,
                role,
                cfg,
                expect_grid && role == TableRole::Delay,
                &mut out,
            );
        }
    }
    for pa in &cell.power_arcs {
        for (name, t) in [
            ("rise_energy", &pa.rise_energy),
            ("fall_energy", &pa.fall_energy),
        ] {
            let entity = format!("{}/{}->{}/{name}", cell.name, pa.related_pin, pa.pin);
            audit_table(stage, &entity, t, TableRole::Energy, cfg, false, &mut out);
        }
    }
    for (state, w) in &cell.leakage_states {
        if !w.is_finite() || *w < 0.0 {
            out.push(Finding::new(
                stage,
                format!("{}/leakage[{state}]", cell.name),
                "leakage_nonneg",
                *w,
                ">= 0, finite".to_string(),
            ));
        }
    }
    out
}

/// Audit every cell of a library.
#[must_use]
pub fn audit_library(stage: &str, lib: &Library, cfg: &AuditConfig) -> AuditReport {
    let mut out = AuditReport::default();
    for cell in lib.cells() {
        out.merge(audit_cell(stage, cell, cfg));
    }
    out
}

/// Mean propagation delay of a cell (across all combinational/clk→Q arc
/// tables), or `None` for arc-less cells (ties).
#[must_use]
pub fn mean_cell_delay(cell: &Cell) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for arc in &cell.arcs {
        if !matches!(arc.kind, ArcKind::Combinational | ArcKind::ClockToQ) {
            continue;
        }
        for t in [&arc.cell_rise, &arc.cell_fall] {
            if !t.values().is_empty() {
                sum += t.mean();
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Cross-corner audit: each cell's cold/warm mean-delay ratio must sit in
/// `cfg.cross_corner_band`. A 10 K library dramatically slower (or faster)
/// than its 300 K sibling is corrupt even if each corner looks
/// self-consistent — this is the paper's trustworthy-delta requirement.
#[must_use]
pub fn audit_cross_corner(
    stage: &str,
    warm: &Library,
    cold: &Library,
    cfg: &AuditConfig,
) -> AuditReport {
    let mut out = AuditReport::default();
    let (lo, hi) = cfg.cross_corner_band;
    for cell in cold.cells() {
        let Ok(warm_cell) = warm.cell(&cell.name) else {
            continue;
        };
        let (Some(d_cold), Some(d_warm)) = (mean_cell_delay(cell), mean_cell_delay(warm_cell))
        else {
            continue;
        };
        if d_warm <= 0.0 {
            continue; // warm corner is broken; its own audit reports that
        }
        let ratio = d_cold / d_warm;
        if !ratio.is_finite() || ratio < lo || ratio > hi {
            out.push(Finding::new(
                stage,
                cell.name.clone(),
                "cross_corner_band",
                ratio,
                format!("[{lo}, {hi}] x 300 K delay"),
            ));
        }
    }
    out
}

/// Mean delay sigma of a cell (across the `cell_rise`/`cell_fall` sigma
/// tables of its combinational/clk→Q arcs), or `None` when no arc carries
/// LVF data.
#[must_use]
pub fn mean_cell_sigma(cell: &Cell) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for arc in &cell.arcs {
        if !matches!(arc.kind, ArcKind::Combinational | ArcKind::ClockToQ) {
            continue;
        }
        let Some(sig) = &arc.sigma else { continue };
        for t in [&sig.cell_rise, &sig.cell_fall] {
            if !t.values().is_empty() {
                sum += t.mean();
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Per-cell tolerance on the cryogenic sigma-ordering audit: a finite die
/// population estimates sigma with ~`1/sqrt(2(n-1))` relative noise, so a
/// strict per-cell `>=` would cry wolf on healthy small-n runs. The
/// library-level pooled comparison below stays strict.
const LVF_ORDERING_CELL_TOL: f64 = 0.25;

/// Cross-temperature LVF audit — the paper's band-tail physics made a
/// signoff invariant: threshold-shift variation compounds when cooled, so
/// a cell's *relative* delay sigma (`mean sigma / mean delay`) at the cold
/// corner must not fall below its warm value. Checked per cell with a
/// noise tolerance, and strictly on the library-pooled ratio, where die
/// noise averages out. Cells without LVF data in both corners are skipped.
#[must_use]
pub fn audit_lvf_cross_corner(stage: &str, warm: &Library, cold: &Library) -> AuditReport {
    let mut out = AuditReport::default();
    let rel = |cell: &Cell| -> Option<f64> {
        match (mean_cell_sigma(cell), mean_cell_delay(cell)) {
            (Some(s), Some(d)) if d > 0.0 => Some(s / d),
            _ => None,
        }
    };
    let (mut cold_sum, mut warm_sum, mut n_pooled) = (0.0, 0.0, 0usize);
    for cell in cold.cells() {
        let Ok(warm_cell) = warm.cell(&cell.name) else {
            continue;
        };
        let (Some(r_cold), Some(r_warm)) = (rel(cell), rel(warm_cell)) else {
            continue;
        };
        cold_sum += r_cold;
        warm_sum += r_warm;
        n_pooled += 1;
        if r_cold < r_warm * (1.0 - LVF_ORDERING_CELL_TOL) {
            out.push(Finding::new(
                stage,
                cell.name.clone(),
                "sigma_cryo_ordering",
                r_cold,
                format!(">= {:e} (rel sigma at {} K)", r_warm, warm.temperature),
            ));
        }
    }
    if n_pooled > 0 && cold_sum < warm_sum {
        out.push(Finding::new(
            stage,
            cold.name.clone(),
            "sigma_cryo_ordering",
            cold_sum / n_pooled as f64,
            format!(
                ">= {:e} (pooled rel sigma at {} K)",
                warm_sum / n_pooled as f64,
                warm.temperature
            ),
        ));
    }
    out
}

/// Pick the anchor nearest to `lib` in log-temperature distance (delay
/// physics scale multiplicatively with temperature, so 4 K vs 10 K is a
/// bigger step than 250 K vs 300 K even though the kelvin gap says
/// otherwise). Anchors at a different supply voltage are only considered
/// when no same-VDD anchor exists — a VDD step moves delays far more than
/// any temperature step in the calibrated range. Returns `None` for an
/// empty anchor list; ties break toward the warmer anchor.
#[must_use]
pub fn nearest_anchor<'a>(lib: &Library, anchors: &[&'a Library]) -> Option<&'a Library> {
    let same_vdd: Vec<&&Library> = anchors
        .iter()
        .filter(|a| (a.vdd - lib.vdd).abs() < 5e-4)
        .collect();
    let pool: Vec<&&Library> = if same_vdd.is_empty() {
        anchors.iter().collect()
    } else {
        same_vdd
    };
    let dist = |a: &Library| {
        if a.temperature > 0.0 && lib.temperature > 0.0 {
            (a.temperature / lib.temperature).ln().abs()
        } else {
            f64::INFINITY
        }
    };
    pool.into_iter()
        .min_by(|a, b| {
            dist(a)
                .partial_cmp(&dist(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    b.temperature
                        .partial_cmp(&a.temperature)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        })
        .copied()
}

/// [`audit_cross_corner`] generalized from the historical hardcoded
/// 300 K-vs-10 K pair to an arbitrary corner list: `lib` is compared
/// against its [`nearest_anchor`] among `anchors`. An empty anchor list
/// audits clean — the first corner of a farm has nothing to compare
/// against, which is exactly why farms SPICE-anchor it.
#[must_use]
pub fn audit_cross_corner_nearest(
    stage: &str,
    lib: &Library,
    anchors: &[&Library],
    cfg: &AuditConfig,
) -> AuditReport {
    match nearest_anchor(lib, anchors) {
        Some(anchor) => audit_cross_corner(stage, anchor, lib, cfg),
        None => AuditReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Pin, TimingSense};
    use crate::function::LogicFunction;

    fn grid_table(base: f64) -> Lut2 {
        // Strictly increasing in both axes: base + slew + load terms.
        let s = [1e-12, 2e-12, 3e-12];
        let l = [1e-15, 2e-15, 3e-15];
        let mut vals = Vec::new();
        for si in s {
            for li in l {
                vals.push(base + 2.0 * si + 3e3 * li);
            }
        }
        Lut2::new(s.to_vec(), l.to_vec(), vals).unwrap()
    }

    fn cell_with(rise: Lut2) -> Cell {
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
                cell_fall: grid_table(1e-12),
                rise_transition: grid_table(0.5e-12),
                fall_transition: grid_table(0.5e-12),
                sigma: None,
            }],
            power_arcs: vec![],
            leakage_states: vec![(0, 1e-9)],
            ff: None,
            drive: 1,
        }
    }

    #[test]
    fn clean_cell_has_no_findings() {
        let rep = audit_cell("t", &cell_with(grid_table(1e-12)), &AuditConfig::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
    }

    #[test]
    fn sign_flip_is_flagged_with_exact_coordinates() {
        let t = grid_table(1e-12);
        let mut vals = t.values().to_vec();
        vals[4] = -vals[4]; // row 1, col 1
        let bad = Lut2::new(t.index1().to_vec(), t.index2().to_vec(), vals).unwrap();
        let rep = audit_cell("t", &cell_with(bad), &AuditConfig::default());
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "delay_positive" && f.entity.ends_with("cell_rise[1,1]")));
        assert_eq!(rep.offending_cells(), vec!["INVx1".to_string()]);
    }

    #[test]
    fn monotone_drop_names_the_dropped_entry() {
        let t = grid_table(1e-12);
        let mut vals = t.values().to_vec();
        vals[5] = vals[3] * 0.5; // row 1, col 2 drops below col 1
        let bad = Lut2::new(t.index1().to_vec(), t.index2().to_vec(), vals).unwrap();
        let rep = audit_cell("t", &cell_with(bad), &AuditConfig::default());
        let mono: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.invariant == "delay_monotone_load")
            .collect();
        assert_eq!(mono.len(), 1);
        assert!(
            mono[0].entity.ends_with("cell_rise[1,2]"),
            "{}",
            mono[0].entity
        );
    }

    #[test]
    fn degenerate_deserialized_table_is_flagged() {
        // serde bypasses Lut2::new — an empty table can only arrive that way.
        let empty: Lut2 = serde_json::from_str(r#"{"index1":[],"index2":[],"values":[]}"#).unwrap();
        let rep = audit_cell("t", &cell_with(empty), &AuditConfig::default());
        assert!(rep.findings.iter().any(|f| f.invariant == "grid_populated"));
    }

    #[test]
    fn cross_corner_band_catches_a_slow_cold_cell() {
        let mut warm = Library::new("w", 300.0, 0.7);
        let mut cold = Library::new("c", 10.0, 0.7);
        warm.add_cell(cell_with(grid_table(1e-12)));
        let mut slow = cell_with(grid_table(1e-12));
        for arc in &mut slow.arcs {
            arc.cell_rise = arc.cell_rise.scaled(3.0);
            arc.cell_fall = arc.cell_fall.scaled(3.0);
        }
        cold.add_cell(slow);
        let rep = audit_cross_corner("x", &warm, &cold, &AuditConfig::default());
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].invariant, "cross_corner_band");
        assert_eq!(rep.findings[0].cell(), "INVx1");
    }

    #[test]
    fn nearest_anchor_prefers_log_distance_and_same_vdd() {
        let l300 = Library::new("w300", 300.0, 0.7);
        let l77 = Library::new("w77", 77.0, 0.7);
        let l300_lo = Library::new("w300lo", 300.0, 0.65);
        let mut cold = Library::new("c", 10.0, 0.7);
        cold.add_cell(cell_with(grid_table(1e-12)));
        // 10 K is nearer 77 K than 300 K in log distance.
        let got = nearest_anchor(&cold, &[&l300, &l77]).unwrap();
        assert_eq!(got.name, "w77");
        // Linear distance would pick 77 K for a 200 K library too; log
        // distance correctly picks 300 K (ratio 1.5 vs 2.6).
        let warmish = Library::new("m", 200.0, 0.7);
        assert_eq!(
            nearest_anchor(&warmish, &[&l300, &l77]).unwrap().name,
            "w300"
        );
        // A same-VDD anchor beats a nearer-in-T anchor at another VDD.
        let mid = Library::new("m2", 250.0, 0.7);
        assert_eq!(nearest_anchor(&mid, &[&l300_lo, &l77]).unwrap().name, "w77");
        assert!(nearest_anchor(&cold, &[]).is_none());
    }

    #[test]
    fn nearest_anchor_audit_generalizes_the_pair() {
        let mut w300 = Library::new("w300", 300.0, 0.7);
        w300.add_cell(cell_with(grid_table(1e-12)));
        let mut w77 = Library::new("w77", 77.0, 0.7);
        let mut fast77 = cell_with(grid_table(1e-12));
        for arc in &mut fast77.arcs {
            arc.cell_rise = arc.cell_rise.scaled(0.9);
            arc.cell_fall = arc.cell_fall.scaled(0.9);
        }
        w77.add_cell(fast77);
        // A 10 K corner 3x slower than its nearest (77 K) anchor is caught
        // even though the 300 K comparison alone would also pass 0.9*3 = 2.7
        // — the point is the anchor choice, not the band.
        let mut cold = Library::new("c", 10.0, 0.7);
        let mut slow = cell_with(grid_table(1e-12));
        for arc in &mut slow.arcs {
            arc.cell_rise = arc.cell_rise.scaled(2.7);
            arc.cell_fall = arc.cell_fall.scaled(2.7);
        }
        cold.add_cell(slow);
        let rep = audit_cross_corner_nearest("x", &cold, &[&w300, &w77], &AuditConfig::default());
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].invariant, "cross_corner_band");
        // With no anchors the audit is clean by definition.
        assert!(audit_cross_corner_nearest("x", &cold, &[], &AuditConfig::default()).is_clean());
    }

    fn with_sigma(mut cell: Cell, scale: f64) -> Cell {
        for arc in &mut cell.arcs {
            arc.sigma = Some(crate::cell::ArcSigma {
                cell_rise: arc.cell_rise.scaled(scale),
                cell_fall: arc.cell_fall.scaled(scale),
                rise_transition: arc.rise_transition.scaled(scale),
                fall_transition: arc.fall_transition.scaled(scale),
            });
        }
        cell
    }

    #[test]
    fn clean_sigma_tables_audit_clean() {
        let cell = with_sigma(cell_with(grid_table(1e-12)), 0.05);
        let rep = audit_cell("t", &cell, &AuditConfig::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
        assert!(mean_cell_sigma(&cell).unwrap() > 0.0);
    }

    #[test]
    fn negative_sigma_is_flagged_with_coordinates() {
        let mut cell = with_sigma(cell_with(grid_table(1e-12)), 0.05);
        let sig = cell.arcs[0].sigma.as_mut().unwrap();
        let mut vals = sig.cell_rise.values().to_vec();
        vals[2] = -1e-13; // row 0, col 2
        sig.cell_rise = Lut2::new(
            sig.cell_rise.index1().to_vec(),
            sig.cell_rise.index2().to_vec(),
            vals,
        )
        .unwrap();
        let rep = audit_cell("t", &cell, &AuditConfig::default());
        assert!(rep.findings.iter().any(
            |f| f.invariant == "sigma_nonneg" && f.entity.ends_with("ocv_sigma_cell_rise[0,2]")
        ));
        // A degenerate (empty) sigma table can only arrive through serde;
        // it is reported as an unpopulated grid, same as nominal tables.
        let mut hollow = with_sigma(cell_with(grid_table(1e-12)), 0.05);
        hollow.arcs[0].sigma.as_mut().unwrap().cell_fall =
            serde_json::from_str(r#"{"index1":[],"index2":[],"values":[]}"#).unwrap();
        let rep2 = audit_cell("t", &hollow, &AuditConfig::default());
        assert!(rep2
            .findings
            .iter()
            .any(|f| f.invariant == "grid_populated" && f.entity.ends_with("ocv_sigma_cell_fall")));
    }

    #[test]
    fn incongruent_sigma_grid_is_flagged() {
        let mut cell = with_sigma(cell_with(grid_table(1e-12)), 0.05);
        // A sigma table on its own (shifted) axes: internally consistent,
        // but variation lookups would interpolate off-grid — flagged.
        cell.arcs[0].sigma.as_mut().unwrap().cell_fall =
            Lut2::new(vec![2e-12, 4e-12], vec![2e-15, 4e-15], vec![1e-13; 4]).unwrap();
        let rep = audit_cell("t", &cell, &AuditConfig::default());
        let hits: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.invariant == "sigma_grid_congruent")
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(
            hits[0].entity.ends_with("ocv_sigma_cell_fall"),
            "{}",
            hits[0].entity
        );
    }

    #[test]
    fn lvf_cross_corner_orders_relative_sigma_cold_over_warm() {
        let mut warm = Library::new("w", 300.0, 0.7);
        let mut cold = Library::new("c", 10.0, 0.7);
        warm.add_cell(with_sigma(cell_with(grid_table(1e-12)), 0.05));
        // Cold sigma grows (8 % relative): physics respected, audit clean.
        cold.add_cell(with_sigma(cell_with(grid_table(1e-12)), 0.08));
        assert!(audit_lvf_cross_corner("x", &warm, &cold).is_clean());
        // Cold sigma collapsing far below warm trips both the per-cell and
        // the pooled check.
        let mut bad_cold = Library::new("c2", 10.0, 0.7);
        bad_cold.add_cell(with_sigma(cell_with(grid_table(1e-12)), 0.01));
        let rep = audit_lvf_cross_corner("x", &warm, &bad_cold);
        assert_eq!(rep.findings.len(), 2, "{:?}", rep.findings);
        assert!(rep
            .findings
            .iter()
            .all(|f| f.invariant == "sigma_cryo_ordering"));
        // Libraries without LVF data audit vacuously clean.
        let mut plain = Library::new("p", 10.0, 0.7);
        plain.add_cell(cell_with(grid_table(1e-12)));
        assert!(audit_lvf_cross_corner("x", &warm, &plain).is_clean());
        assert!(mean_cell_sigma(&cell_with(grid_table(1e-12))).is_none());
    }

    #[test]
    fn report_serde_round_trips_with_nan_observations() {
        let mut rep = AuditReport::default();
        rep.push(Finding::new(
            "s",
            "C/x->y/t[0,0]".into(),
            "finite",
            f64::NAN,
            "finite".into(),
        ));
        let json = serde_json::to_string(&rep).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(rep, back);
        assert!(!back.is_clean());
        assert_eq!(back.findings[0].cell(), "C");
    }
}
