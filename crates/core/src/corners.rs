//! The PVT corner farm: fault-isolated multi-corner signoff.
//!
//! The paper's flow characterizes exactly two corners — {300 K, 10 K} at
//! 0.70 V, typical process. Real cryogenic signoff needs a dense PVT grid
//! (the cryo-EDA platform of Tang et al. characterizes the full 4 K–300 K
//! range), and at 20+ corners partial failure is the common case: one sick
//! corner must degrade the verdict, never sink the farm. This module is
//! that layer:
//!
//! - [`CornerSpec`] — a declarative corner set (`T=…;V=…;P=…`), strictly
//!   validated, deduplicated, and canonically ordered, parsed from
//!   `CRYO_CORNERS` / `--corners`.
//! - [`CornerFarm`] — schedules one supervised characterize→audit→STA
//!   pipeline per corner with **per-corner fault isolation**: each corner
//!   gets its own retry/deadline budget on a watchdog-supervised worker, a
//!   checksummed checkpoint blob in the farm's namespace, and terminal
//!   failures are quarantined into a `Failed{cause}` outcome instead of
//!   aborting the run.
//! - **Resumable manifest.** The farm namespace is keyed by
//!   [`CornerFarm::farm_key`]; a run killed mid-farm resumes with zero
//!   re-simulation of completed corners (the per-corner ledger's
//!   simulator counters prove it), and the key is `jobs`-invariant so a
//!   run interrupted at `jobs = 1` resumes under `jobs = 8`.
//! - **Surrogate-anchored prediction.** The warmest corner of each
//!   (process, VDD) group is SPICE ground truth; with
//!   [`SurrogatePolicy::PredictWithFallback`] every other corner in the
//!   group is predicted from that anchor and audit-gated with per-cell
//!   SPICE fallback.
//! - [`FarmReport`] — per-corner provenance (Spice / Predicted / Derated
//!   / Failed) and a signoff verdict gated on a minimum-signed-corner
//!   floor, echoing the characterization coverage floor.

use std::time::{Duration, Instant};

use cryo_cells::checkpoint::QUARANTINE_KEEP;
use cryo_cells::{cache, topology, CellError, CheckpointStore};
use cryo_liberty::{audit_cross_corner_nearest, audit_library};
use cryo_spice::fault;
use cryo_sta::MissingArcPolicy;
use cryo_surrogate::fnv64;
use serde::{Deserialize, Serialize};

use crate::audit::{self, AuditPolicy};
use crate::flow::CryoFlow;
use crate::supervise::{checkpoint, run_step, validate_env, Step};
use crate::surrogate::SurrogatePolicy;
use crate::{CoreError, Result};

// ----------------------------------------------------------------------
// Corner specification
// ----------------------------------------------------------------------

/// Process corner, realized by pushing the calibrated model cards to the
/// deterministic extreme of the Monte-Carlo variation model
/// (`cryo_device::corner_die`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Process {
    /// Typical-typical: the calibrated cards, bit for bit.
    Tt,
    /// Slow-slow: +3-sigma threshold/resistance, −3-sigma mobility.
    Ss,
    /// Fast-fast: the mirror image of ss.
    Ff,
}

impl Process {
    /// Every process corner, in canonical (farm) order: the typical
    /// reference first, then the extremes.
    pub const ALL: [Process; 3] = [Process::Tt, Process::Ss, Process::Ff];

    /// Stable lowercase name, as it appears in library names and specs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Process::Tt => "tt",
            Process::Ss => "ss",
            Process::Ff => "ff",
        }
    }

    /// The sigma multiplier handed to `corner_die`: `+1` slow, `0`
    /// typical, `−1` fast.
    #[must_use]
    pub fn sigma_sign(self) -> f64 {
        match self {
            Process::Tt => 0.0,
            Process::Ss => 1.0,
            Process::Ff => -1.0,
        }
    }

    fn order(self) -> usize {
        Process::ALL
            .iter()
            .position(|p| *p == self)
            .expect("in ALL")
    }

    /// Parse `tt` / `ss` / `ff` (case-insensitive).
    ///
    /// # Errors
    ///
    /// A human-readable reason for anything else.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "tt" => Ok(Process::Tt),
            "ss" => Ok(Process::Ss),
            "ff" => Ok(Process::Ff),
            other => Err(format!(
                "unknown process corner {other:?} (expected tt, ss, or ff)"
            )),
        }
    }
}

/// One PVT corner of the farm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Corner {
    /// Temperature, kelvin.
    pub temp: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Process corner.
    pub process: Process,
}

impl Corner {
    /// Canonical corner name, e.g. `ss_0p65v_4p2k` — the corner's library
    /// name minus the `cryo5_` family prefix. Used as the checkpoint blob
    /// name, the fault-injection scope (`corner:<name>`), and the stage
    /// label in audit findings.
    #[must_use]
    pub fn name(&self) -> String {
        self.lib_name()
            .strip_prefix("cryo5_")
            .expect("corner_lib_name is cryo5_-prefixed")
            .to_string()
    }

    /// The corner's library name (`cache::corner_lib_name`), byte-
    /// compatible with the legacy two-point names for {300 K, 10 K} ×
    /// 0.70 V × tt.
    #[must_use]
    pub fn lib_name(&self) -> String {
        cache::corner_lib_name(self.process.name(), self.vdd, self.temp)
    }
}

/// Calibrated temperature range the farm accepts, kelvin. The device
/// model is anchored on 4 K–300 K measurements; a small margin on both
/// sides keeps interpolation honest while rejecting obvious typos.
pub const TEMP_RANGE_K: (f64, f64) = (2.0, 400.0);
/// Accepted supply range, volts.
pub const VDD_RANGE_V: (f64, f64) = (0.40, 1.00);

/// A declarative corner set: the cross product of a temperature sweep, a
/// VDD list, and a process list. Parsed from `CRYO_CORNERS` / `--corners`
/// as `T=300,77,4.2;V=0.70,0.65;P=tt,ss`; `V` defaults to `0.70` and `P`
/// to `tt` when omitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerSpec {
    /// Temperatures, kelvin.
    pub temps: Vec<f64>,
    /// Supplies, volts.
    pub vdds: Vec<f64>,
    /// Process corners.
    pub procs: Vec<Process>,
}

impl CornerSpec {
    /// Parse and validate a spec string. The result is normalized
    /// (sorted, deduplicated), so equal corner sets parse to equal specs
    /// regardless of axis ordering in the input.
    ///
    /// # Errors
    ///
    /// A human-readable reason: empty spec or axis, unknown axis or
    /// process, malformed numbers, duplicate axes or values, temperatures
    /// outside [`TEMP_RANGE_K`] or off the 0.1 K grid, supplies outside
    /// [`VDD_RANGE_V`] or off the 1 mV grid.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        if s.trim().is_empty() {
            return Err("empty corner spec (expected T=...[;V=...][;P=...])".into());
        }
        let mut temps: Option<Vec<f64>> = None;
        let mut vdds: Option<Vec<f64>> = None;
        let mut procs: Option<Vec<Process>> = None;
        for clause in s.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((axis, values)) = clause.split_once('=') else {
                return Err(format!("clause {clause:?} is not AXIS=VALUE,VALUE,..."));
            };
            let axis = axis.trim().to_ascii_uppercase();
            let values: Vec<&str> = values.split(',').map(str::trim).collect();
            if values.iter().any(|v| v.is_empty()) {
                return Err(format!("axis {axis} has an empty value (empty sweep?)"));
            }
            match axis.as_str() {
                "T" => {
                    if temps.is_some() {
                        return Err("duplicate T axis".into());
                    }
                    temps = Some(parse_grid_axis(
                        "temperature",
                        &values,
                        TEMP_RANGE_K,
                        10.0,
                        "K",
                        "0.1 K",
                    )?);
                }
                "V" => {
                    if vdds.is_some() {
                        return Err("duplicate V axis".into());
                    }
                    vdds = Some(parse_grid_axis(
                        "vdd",
                        &values,
                        VDD_RANGE_V,
                        1000.0,
                        "V",
                        "1 mV",
                    )?);
                }
                "P" => {
                    if procs.is_some() {
                        return Err("duplicate P axis".into());
                    }
                    let mut list = Vec::new();
                    for v in &values {
                        let p = Process::parse(v)?;
                        if list.contains(&p) {
                            return Err(format!("duplicate process corner {}", p.name()));
                        }
                        list.push(p);
                    }
                    procs = Some(list);
                }
                other => {
                    return Err(format!("unknown axis {other:?} (expected T, V, or P)"));
                }
            }
        }
        let Some(temps) = temps else {
            return Err("missing T axis (a corner spec needs at least a temperature sweep)".into());
        };
        let mut spec = CornerSpec {
            temps,
            vdds: vdds.unwrap_or_else(|| vec![0.70]),
            procs: procs.unwrap_or_else(|| vec![Process::Tt]),
        };
        spec.normalize();
        Ok(spec)
    }

    /// Strictly parse `CRYO_CORNERS`; unset means `None` (no farm).
    ///
    /// # Errors
    ///
    /// The parse failure reason for a set-but-malformed variable.
    pub fn from_env_checked() -> std::result::Result<Option<Self>, String> {
        match std::env::var("CRYO_CORNERS") {
            Ok(s) => Self::parse(&s).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Sort each axis into canonical order (temperatures warmest-first so
    /// every group leads with its SPICE anchor, supplies ascending,
    /// processes in [`Process::ALL`] order) and drop duplicates.
    /// Idempotent; [`CornerSpec::parse`] already returns normalized specs.
    pub fn normalize(&mut self) {
        self.temps
            .sort_by(|a, b| b.partial_cmp(a).expect("finite temps"));
        self.temps.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        self.vdds
            .sort_by(|a, b| a.partial_cmp(b).expect("finite vdds"));
        self.vdds.dedup_by(|a, b| (*a - *b).abs() < 0.5e-3);
        self.procs.sort_by_key(|p| p.order());
        self.procs.dedup();
    }

    /// The corner list: the full cross product in canonical order —
    /// grouped by (process, VDD) with temperatures warmest-first, so each
    /// group is contiguous and leads with its anchor corner.
    #[must_use]
    pub fn corners(&self) -> Vec<Corner> {
        let mut spec = self.clone();
        spec.normalize();
        let mut out = Vec::new();
        for &process in &spec.procs {
            for &vdd in &spec.vdds {
                for &temp in &spec.temps {
                    out.push(Corner { temp, vdd, process });
                }
            }
        }
        out
    }

    /// The canonical spec string: parsing it back yields an equal spec.
    #[must_use]
    pub fn spec_string(&self) -> String {
        let mut spec = self.clone();
        spec.normalize();
        let join = |xs: &[f64]| {
            xs.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "T={};V={};P={}",
            join(&spec.temps),
            join(&spec.vdds),
            spec.procs
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(",")
        )
    }

    /// FNV-64 digest of the canonical corner list — invariant under axis
    /// reordering of the input spec.
    #[must_use]
    pub fn canonical_digest(&self) -> String {
        let names: Vec<String> = self.corners().iter().map(Corner::name).collect();
        fnv64(&names.join("|"))
    }
}

/// Parse one numeric axis: finite, inside `range`, and on the grid of
/// `1/grid_scale` units (0.1 K for temperatures, 1 mV for supplies) so
/// corner names are lossless; duplicates rejected.
fn parse_grid_axis(
    what: &str,
    values: &[&str],
    range: (f64, f64),
    grid_scale: f64,
    unit: &str,
    grid_name: &str,
) -> std::result::Result<Vec<f64>, String> {
    let mut out: Vec<f64> = Vec::new();
    for v in values {
        let x: f64 = v
            .parse()
            .map_err(|_| format!("bad {what} {v:?} (expected a number)"))?;
        if !x.is_finite() || x < range.0 || x > range.1 {
            return Err(format!(
                "{what} {v} {unit} outside the calibrated range [{}, {}] {unit}",
                range.0, range.1
            ));
        }
        let scaled = x * grid_scale;
        if (scaled - scaled.round()).abs() > 1e-6 {
            return Err(format!("{what} {v} {unit} is not on the {grid_name} grid"));
        }
        if out.iter().any(|y| (y - x).abs() < 0.5 / grid_scale) {
            return Err(format!("duplicate {what} {v} {unit}"));
        }
        out.push(x);
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Farm configuration + report
// ----------------------------------------------------------------------

/// Knobs for the corner farm.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// The corner set to sign off.
    pub spec: CornerSpec,
    /// Per-corner deadline; an overrunning corner is quarantined as
    /// `Failed`, not retried (its watchdog worker is leaked, exactly like
    /// a supervised stage timeout).
    pub corner_budget: Duration,
    /// Overall wall-clock budget for the whole farm; the effective
    /// per-corner deadline is clamped by what remains of this.
    pub overall_budget: Duration,
    /// Attempts per corner (1 = no retry). Coverage, configuration,
    /// timeout, and post-repair audit errors are never retried.
    pub max_attempts: u32,
    /// Initial retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Missing-arc policy for the per-corner STA.
    pub missing_arc_policy: MissingArcPolicy,
    /// Minimum fraction of corners that must sign for the farm verdict.
    pub min_signed_frac: f64,
    /// When set, each `Failed` corner borrows its nearest signed
    /// same-(process, VDD) neighbor's numbers with this pessimism margin
    /// (`fmax × (1 − m)`, delays `× (1 + m)`) and signs as `Derated`.
    pub derate_margin: Option<f64>,
    /// Stop (successfully, `completed = false`) after this many corners —
    /// the in-process kill point used by the resume tests and CI drill.
    pub halt_after: Option<usize>,
}

impl FarmConfig {
    /// Defaults for `spec`: supervised-pipeline-scale budgets, a 90 %
    /// signed floor, no derating.
    #[must_use]
    pub fn new(spec: CornerSpec) -> Self {
        FarmConfig {
            spec,
            corner_budget: Duration::from_secs(600),
            overall_budget: Duration::from_secs(3600),
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.10 },
            min_signed_frac: 0.9,
            derate_margin: None,
            halt_after: None,
        }
    }
}

/// Where a signed corner's numbers came from — the farm-level analogue of
/// the library's `Provenance`.
#[derive(Debug, Clone, PartialEq)]
pub enum CornerProvenance {
    /// Full SPICE characterization (anchor corners, or every corner with
    /// the surrogate off).
    Spice,
    /// Predicted from the group's anchor by the learned surrogate
    /// (audit-gated, per-cell SPICE fallback).
    Predicted {
        /// FNV-64 digest of the trained model's weights.
        model_hash: String,
    },
    /// Borrowed from a signed neighbor with a pessimism margin after this
    /// corner failed terminally.
    Derated {
        /// The donor corner's name.
        from: String,
        /// The pessimism margin applied.
        margin: f64,
    },
    /// Terminal failure, quarantined: the farm completed without it.
    Failed {
        /// The terminal error, verbatim.
        cause: String,
    },
}

// The vendored serde derive only handles unit-variant enums, so the
// tagged-object encoding is written out (same pattern as `Provenance`).
impl Serialize for CornerProvenance {
    fn to_value(&self) -> serde::Value {
        let kind = |k: &str| ("kind".to_string(), k.to_string().to_value());
        match self {
            CornerProvenance::Spice => serde::Value::Object(vec![kind("spice")]),
            CornerProvenance::Predicted { model_hash } => serde::Value::Object(vec![
                kind("predicted"),
                ("model_hash".to_string(), model_hash.to_value()),
            ]),
            CornerProvenance::Derated { from, margin } => serde::Value::Object(vec![
                kind("derated"),
                ("from".to_string(), from.to_value()),
                ("margin".to_string(), margin.to_value()),
            ]),
            CornerProvenance::Failed { cause } => serde::Value::Object(vec![
                kind("failed"),
                ("cause".to_string(), cause.to_value()),
            ]),
        }
    }
}

impl Deserialize for CornerProvenance {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        fn field<T: Deserialize>(
            v: &serde::Value,
            name: &str,
        ) -> std::result::Result<T, serde::Error> {
            Deserialize::from_value(v.get(name))
                .map_err(|e| serde::Error::custom(format!("CornerProvenance.{name}: {e}")))
        }
        let kind: String = field(v, "kind")?;
        match kind.as_str() {
            "spice" => Ok(CornerProvenance::Spice),
            "predicted" => Ok(CornerProvenance::Predicted {
                model_hash: field(v, "model_hash")?,
            }),
            "derated" => Ok(CornerProvenance::Derated {
                from: field(v, "from")?,
                margin: field(v, "margin")?,
            }),
            "failed" => Ok(CornerProvenance::Failed {
                cause: field(v, "cause")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown CornerProvenance kind {other:?}"
            ))),
        }
    }
}

/// One corner's signoff outcome. Deterministic for a given farm
/// configuration — this is what the checkpoint blob stores, so a resumed
/// farm reproduces its report byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerOutcome {
    /// Canonical corner name.
    pub name: String,
    /// Temperature, kelvin.
    pub temp: f64,
    /// Supply, volts.
    pub vdd: f64,
    /// Process corner.
    pub process: Process,
    /// Where the numbers came from.
    pub provenance: CornerProvenance,
    /// Whether this corner counts toward the signoff floor.
    pub signed: bool,
    /// Maximum clock at this corner, hertz (`None` when failed).
    pub fmax_hz: Option<f64>,
    /// Library mean arc delay, seconds (`None` when failed).
    pub mean_delay: Option<f64>,
    /// Cells in the corner's library.
    pub cells: usize,
    /// Degraded (stand-in) arcs in the corner's timing report.
    pub degraded_arcs: usize,
    /// Cells repaired by targeted re-characterization, in repair order.
    pub repaired: Vec<String>,
    /// Predicted cells that fell back to SPICE, in name order.
    pub fallbacks: Vec<String>,
}

impl CornerOutcome {
    fn failed(corner: Corner, cause: String) -> Self {
        CornerOutcome {
            name: corner.name(),
            temp: corner.temp,
            vdd: corner.vdd,
            process: corner.process,
            provenance: CornerProvenance::Failed { cause },
            signed: false,
            fmax_hz: None,
            mean_delay: None,
            cells: 0,
            degraded_arcs: 0,
            repaired: Vec::new(),
            fallbacks: Vec::new(),
        }
    }
}

/// Per-corner execution record — the farm's ledger entry, kept outside
/// [`FarmReport`] because wall-clock and resume provenance legitimately
/// differ between a cold run and its resume while the report must not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerRecord {
    /// Canonical corner name.
    pub corner: String,
    /// `true` when the outcome was loaded from its checkpoint blob.
    pub from_checkpoint: bool,
    /// Attempts taken (0 when resumed).
    pub attempts: u32,
    /// Wall-clock seconds spent (≈0 when resumed).
    pub wall_s: f64,
    /// DC operating-point solves this corner ran.
    pub dc_solves: u64,
    /// Transient analyses this corner ran.
    pub tran_solves: u64,
    /// STA arc evaluations this corner ran.
    pub arc_evals: u64,
}

/// The farm manifest, stored as the `manifest` blob in the farm's
/// checkpoint namespace: enough to identify what a half-finished farm was
/// building.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FarmManifest {
    /// The farm's checkpoint-namespace key.
    pub farm_key: String,
    /// Canonical spec string.
    pub spec: String,
    /// Canonical corner names, in execution order.
    pub corners: Vec<String>,
}

/// The farm's headline artifact: per-corner provenance plus the signoff
/// verdict. Byte-identical across kill/resume and any `jobs` setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FarmReport {
    /// Checkpoint-namespace key derived from every run-relevant input.
    pub farm_key: String,
    /// `false` when the run stopped at [`FarmConfig::halt_after`].
    pub completed: bool,
    /// One outcome per corner, in canonical execution order.
    pub corners: Vec<CornerOutcome>,
    /// Signed corner count (Spice + Predicted + Derated).
    pub signed: usize,
    /// Quarantined corner count (still `Failed` after any derating).
    pub failed: usize,
    /// The configured signoff floor.
    pub min_signed_frac: f64,
    /// Whether the farm signs off: completed and
    /// `signed ≥ min_signed_frac × corners`.
    pub signoff: bool,
    /// Quarantined `*.corrupt` evidence files deleted by bounded pruning
    /// at the end of the run (the newest [`cryo_cells::checkpoint::QUARANTINE_KEEP`]
    /// per entry are kept). Serialized only when nonzero, so undamaged
    /// farms keep their pre-chaos bytes.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub quarantined_pruned: usize,
}

fn is_zero(n: &usize) -> bool {
    *n == 0
}

/// A farm run: the deterministic report plus the execution ledger.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FarmRun {
    /// The deterministic signoff report.
    pub report: FarmReport,
    /// Per-corner execution records, in execution order.
    pub ledger: Vec<CornerRecord>,
}

impl FarmRun {
    /// The structured error for a farm that completed below its signoff
    /// floor, or `None` when the farm signed off.
    #[must_use]
    pub fn signoff_error(&self) -> Option<CoreError> {
        if self.report.signoff {
            return None;
        }
        Some(CoreError::FarmCoverage {
            signed: self.report.signed,
            total: self.report.corners.len(),
            floor: self.report.min_signed_frac,
            failed: self
                .report
                .corners
                .iter()
                .filter(|o| !o.signed)
                .map(|o| o.name.clone())
                .collect(),
        })
    }
}

// ----------------------------------------------------------------------
// The farm supervisor
// ----------------------------------------------------------------------

/// The corner-farm supervisor. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct CornerFarm {
    flow: CryoFlow,
    cfg: FarmConfig,
}

impl CornerFarm {
    /// Wrap a flow in a farm.
    #[must_use]
    pub fn new(flow: CryoFlow, cfg: FarmConfig) -> Self {
        CornerFarm { flow, cfg }
    }

    /// The underlying flow.
    #[must_use]
    pub fn flow(&self) -> &CryoFlow {
        &self.flow
    }

    /// The farm configuration.
    #[must_use]
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// The farm's checkpoint-namespace key: an FNV-64 digest over every
    /// corner's cache key (derived from the **pure** process cards, so
    /// fault plans cannot move the namespace), the SoC configuration, the
    /// seed, the coverage floor, and the missing-arc policy. Invariant
    /// under spec reordering (the corner list is canonical) and — like the
    /// pipeline key — deliberately independent of `jobs`, the audit
    /// policy, the surrogate policy, and the signoff floor: none of those
    /// change what a checkpointed corner would have computed.
    ///
    /// # Errors
    ///
    /// Cache-key construction failures.
    pub fn farm_key(&self) -> Result<String> {
        let fcfg = self.flow.config();
        let cells = topology::standard_cell_set();
        let tag = cache::cell_set_tag(&cells);
        let mut parts = Vec::new();
        for corner in self.cfg.spec.corners() {
            let mut char_cfg = self.flow.corner_char_cfg(&corner);
            char_cfg.jobs = 1;
            let (nfet, pfet) = self.flow.process_cards(corner.process);
            let key = cache::cache_key(&nfet, &pfet, &char_cfg, &tag)?;
            parts.push(format!("{}={key}", corner.name()));
        }
        Ok(fnv64(&format!(
            "{}|{:?}|{}|{}|{:?}",
            parts.join("|"),
            fcfg.soc,
            fcfg.seed,
            fcfg.coverage_floor,
            self.cfg.missing_arc_policy
        )))
    }

    /// Drop every farm-level checkpoint (the manifest and all corner
    /// outcomes) for this configuration — the way to retry quarantined
    /// corners after fixing their cause.
    ///
    /// # Errors
    ///
    /// Checkpoint-store I/O failures.
    pub fn clear_checkpoints(&self) -> Result<()> {
        let store = self.open_store()?;
        store.clear();
        Ok(())
    }

    fn open_store(&self) -> Result<CheckpointStore> {
        let key = self.farm_key()?;
        Ok(CheckpointStore::open(
            &self.flow.config().cache_dir,
            "farm",
            &key,
        )?)
    }

    /// Run the farm: one isolated characterize→audit→STA pipeline per
    /// corner, resuming from checkpoints, with terminal failures
    /// quarantined into `Failed` outcomes. Always returns a [`FarmRun`]
    /// when the farm machinery itself is healthy — per-corner errors
    /// degrade the report instead of propagating.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] on malformed environment knobs or an empty
    /// corner set; checkpoint-store I/O failures.
    pub fn run(&self) -> Result<FarmRun> {
        let _env = validate_env()?;
        let fcfg = self.flow.config().clone();
        // Arm the plan on the farm thread; each corner worker re-installs
        // a clone so injection follows the work.
        let _fault_guard = fcfg.fault_plan.clone().map(fault::install_guard);
        let corners = self.cfg.spec.corners();
        if corners.is_empty() {
            return Err(CoreError::Config {
                var: "corners".into(),
                value: self.cfg.spec.spec_string(),
                reason: "corner spec produces no corners".into(),
            });
        }
        let farm_key = self.farm_key()?;
        let store = self.open_store()?;
        if store.load_blob("manifest").is_none() {
            let manifest = FarmManifest {
                farm_key: farm_key.clone(),
                spec: self.cfg.spec.spec_string(),
                corners: corners.iter().map(Corner::name).collect(),
            };
            // A manifest is provenance, not an input: on a full disk the
            // farm still runs, it just can't leave its card behind.
            checkpoint(&store, "manifest", &manifest, |e| {
                format!("farm manifest write shed ({e})")
            })?;
        }
        // The anchor of each (process, VDD) group is its first — warmest —
        // corner in canonical order.
        let mut anchors: Vec<((Process, i64), Corner)> = Vec::new();
        for c in &corners {
            let g = (c.process, mv(c.vdd));
            if !anchors.iter().any(|(k, _)| *k == g) {
                anchors.push((g, *c));
            }
        }
        let started = Instant::now();
        let mut outcomes: Vec<CornerOutcome> = Vec::new();
        let mut ledger: Vec<CornerRecord> = Vec::new();
        let mut completed = true;
        for (idx, corner) in corners.iter().enumerate() {
            if let Some(halt) = self.cfg.halt_after {
                if idx >= halt {
                    completed = false;
                    break;
                }
            }
            let g = (corner.process, mv(corner.vdd));
            let anchor = anchors
                .iter()
                .find(|(k, _)| *k == g)
                .map(|(_, c)| *c)
                .expect("every corner's group has an anchor");
            let anchor = if anchor == *corner {
                None
            } else {
                Some(anchor)
            };
            let (outcome, record) = self.run_corner(*corner, anchor, started, &store)?;
            outcomes.push(outcome);
            ledger.push(record);
        }
        if let Some(margin) = self.cfg.derate_margin {
            apply_derate(&mut outcomes, margin);
        }
        let signed = outcomes.iter().filter(|o| o.signed).count();
        let failed = outcomes
            .iter()
            .filter(|o| matches!(o.provenance, CornerProvenance::Failed { .. }))
            .count();
        let signoff =
            completed && (signed as f64) >= self.cfg.min_signed_frac * corners.len() as f64;
        // Bound quarantine growth: a crash-looping deployment must not
        // accumulate `*.corrupt` evidence without limit.
        let quarantined_pruned = store.prune_quarantined(QUARANTINE_KEEP);
        Ok(FarmRun {
            report: FarmReport {
                farm_key,
                completed,
                corners: outcomes,
                signed,
                failed,
                min_signed_frac: self.cfg.min_signed_frac,
                signoff,
                quarantined_pruned,
            },
            ledger,
        })
    }

    /// Run one corner on the supervisor's step runner: resume from its
    /// blob, or run the corner pipeline with retry-with-backoff under the
    /// corner budget and checkpoint the outcome. A terminal error or a
    /// timeout quarantines the corner as a checkpointed `Failed{cause}`,
    /// so resumes are deterministic and the farm never aborts on a sick
    /// corner.
    fn run_corner(
        &self,
        corner: Corner,
        anchor: Option<Corner>,
        started: Instant,
        store: &CheckpointStore,
    ) -> Result<(CornerOutcome, CornerRecord)> {
        let name = corner.name();
        let label = format!("corner:{name}");
        let blob = format!("corner_{name}");
        let step = Step {
            label: &label,
            thread: format!("corner-{name}"),
            blob: &blob,
            started,
            overall_budget: self.cfg.overall_budget,
            budget: self.cfg.corner_budget,
            max_attempts: self.cfg.max_attempts,
            backoff: self.cfg.backoff,
            cancel: None,
            context: None,
        };
        // ENOSPC sheds the corner's resume point, never the corner: the
        // outcome is live in memory and the farm keeps going.
        let shed = |e: &CellError| format!("corner {name} checkpoint shed ({e})");
        let flow = self.flow.clone();
        let policy = self.cfg.missing_arc_policy;
        let run = run_step(
            &step,
            store,
            |_| {},
            shed,
            move || corner_work(&flow, corner, anchor, policy),
        )?;
        let outcome = match run.out {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("warning: corner {name} quarantined: {e}");
                let failed = CornerOutcome::failed(corner, e.to_string());
                checkpoint(store, &blob, &failed, shed)?;
                failed
            }
        };
        Ok((
            outcome,
            CornerRecord {
                corner: name,
                from_checkpoint: run.from_checkpoint,
                attempts: run.attempts,
                wall_s: run.wall_s,
                dc_solves: run.work.dc,
                tran_solves: run.work.tran,
                arc_evals: run.work.arc_evals,
            },
        ))
    }
}

/// Millivolt key for (process, VDD) grouping.
fn mv(vdd: f64) -> i64 {
    (vdd * 1000.0).round() as i64
}

/// The per-corner pipeline body, run on the isolated worker thread:
/// card audit → characterize (SPICE, or surrogate-predicted from the
/// group anchor) → cross-corner audit vs. the anchor → STA.
fn corner_work(
    flow: &CryoFlow,
    corner: Corner,
    anchor: Option<Corner>,
    missing_arc_policy: MissingArcPolicy,
) -> Result<CornerOutcome> {
    let policy = flow.config().audit_policy;
    let name = corner.name();

    // Device audit on this corner's effective cards: a poisoned corner
    // fails here, before a single SPICE run is spent on it (mirrors the
    // supervised pipeline's calibrate-stage audit).
    let (nfet, pfet) = flow.corner_cards(&corner);
    if policy.is_on() {
        let findings = audit::audit_model_cards(&name, &nfet, &pfet);
        if !findings.is_clean() {
            for f in &findings.findings {
                eprintln!("warning: audit {name}: {f}");
            }
            if policy == AuditPolicy::Gate {
                return Err(CoreError::AuditFailed {
                    stage: name,
                    report: findings,
                });
            }
        }
    }

    // The group anchor's SPICE library (a cache hit after the anchor
    // corner itself ran — canonical order puts it first). A quarantined
    // anchor (its own cards fail the audit) yields no anchor: siblings
    // fall back to SPICE with no cross-corner band, rather than burning
    // SPICE time characterizing poisoned cards.
    let anchor_lib = anchor.and_then(|a| {
        let (an, ap) = flow.corner_cards(&a);
        if policy.is_on() && !audit::audit_model_cards(&a.name(), &an, &ap).is_clean() {
            None
        } else {
            flow.corner_library_with_report(&a).ok().map(|(lib, _)| lib)
        }
    });

    let surrogate = flow.config().surrogate_policy;
    let (mut lib, report, provenance) = match (anchor_lib.as_ref(), surrogate) {
        (Some(warm), SurrogatePolicy::PredictWithFallback { max_rel_err }) => {
            let (lib, report) =
                flow.corner_surrogate_library_with_report(&corner, warm, max_rel_err)?;
            let model_hash = report
                .surrogate
                .as_ref()
                .map(|s| s.model_hash.clone())
                .unwrap_or_default();
            (lib, report, CornerProvenance::Predicted { model_hash })
        }
        _ => {
            let (lib, report) = flow.corner_library_with_report(&corner)?;
            (lib, report, CornerProvenance::Spice)
        }
    };

    // Cross-corner band against the nearest anchor, for SPICE corners
    // (the surrogate path already audits against its anchor internally).
    // Under Gate, offenders are quarantined and repaired cell-by-cell;
    // findings that survive repair are terminal.
    let mut repaired = report.audit.repaired.clone();
    if provenance == CornerProvenance::Spice && policy.is_on() {
        if let Some(warm) = anchor_lib.as_ref() {
            let audit_cfg = audit::lib_audit_config(&flow.corner_char_cfg(&corner));
            let cross = audit_cross_corner_nearest(&name, &lib, &[warm], &audit_cfg);
            if !cross.is_clean() {
                for f in &cross.findings {
                    eprintln!("warning: audit {name}: {f}");
                }
                if policy == AuditPolicy::Gate {
                    let offenders = cross.offending_cells();
                    let (lib2, _rep2) = flow.corner_repair_library(&corner, &lib, &offenders)?;
                    let mut recheck = audit_library(&name, &lib2, &audit_cfg);
                    recheck.merge(audit_cross_corner_nearest(
                        &name,
                        &lib2,
                        &[warm],
                        &audit_cfg,
                    ));
                    if !recheck.is_clean() {
                        return Err(CoreError::AuditFailed {
                            stage: name,
                            report: recheck,
                        });
                    }
                    repaired.extend(offenders);
                    lib = lib2;
                }
            }
        }
    }

    // STA, derated against the anchor's mean delay (the anchor itself
    // scales 1.0 — it is its own reference, like the legacy 300 K corner).
    let design = flow.soc();
    let anchor_mean = anchor_lib
        .as_ref()
        .map_or_else(|| lib.stats().mean_delay, |l| l.stats().mean_delay);
    let timing = flow.timing_with_policy(&design, &lib, anchor_mean, missing_arc_policy)?;

    let fallbacks = report
        .surrogate
        .as_ref()
        .map(|s| s.fallbacks.clone())
        .unwrap_or_default();
    Ok(CornerOutcome {
        name,
        temp: corner.temp,
        vdd: corner.vdd,
        process: corner.process,
        provenance,
        signed: true,
        fmax_hz: Some(timing.fmax()),
        mean_delay: Some(lib.stats().mean_delay),
        cells: lib.cells().len(),
        degraded_arcs: timing.degraded_arcs.len(),
        repaired,
        fallbacks,
    })
}

/// Degrade-don't-abort, part two: give each quarantined corner its
/// nearest signed same-(process, VDD) neighbor's numbers with a pessimism
/// margin. Donors are the signed outcomes of the *pre-derate* report
/// (never another derated corner), nearest by log-temperature distance
/// with ties broken toward the warmer donor; a failed corner with no
/// same-group donor stays `Failed`. Pure and deterministic, so a resumed
/// farm (whose blobs keep the `Failed` outcomes) re-derives the same
/// derated report.
pub fn apply_derate(outcomes: &mut [CornerOutcome], margin: f64) {
    let donors: Vec<CornerOutcome> = outcomes.iter().filter(|o| o.signed).cloned().collect();
    for o in outcomes.iter_mut() {
        if !matches!(o.provenance, CornerProvenance::Failed { .. }) {
            continue;
        }
        let best = donors
            .iter()
            .filter(|d| d.process == o.process && mv(d.vdd) == mv(o.vdd))
            .min_by(|a, b| {
                let da = (a.temp / o.temp).ln().abs();
                let db = (b.temp / o.temp).ln().abs();
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(
                        b.temp
                            .partial_cmp(&a.temp)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
            });
        if let Some(d) = best {
            o.provenance = CornerProvenance::Derated {
                from: d.name.clone(),
                margin,
            };
            o.fmax_hz = d.fmax_hz.map(|f| f * (1.0 - margin));
            o.mean_delay = d.mean_delay.map(|m| m * (1.0 + margin));
            o.cells = d.cells;
            o.degraded_arcs = d.degraded_arcs;
            o.signed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_validates_and_orders_canonically() {
        let spec = CornerSpec::parse("T=10,300,77;P=ss,tt;V=0.70").unwrap();
        assert_eq!(spec.temps, vec![300.0, 77.0, 10.0], "warmest first");
        assert_eq!(spec.procs, vec![Process::Tt, Process::Ss], "tt leads");
        let corners = spec.corners();
        assert_eq!(corners.len(), 6);
        assert_eq!(corners[0].name(), "tt_0p70v_300k", "group anchor first");
        assert_eq!(corners[3].name(), "ss_0p70v_300k");
        // Defaults: V=0.70, P=tt.
        let d = CornerSpec::parse("T=300,4.2").unwrap();
        assert_eq!(d.vdds, vec![0.70]);
        assert_eq!(d.procs, vec![Process::Tt]);
        assert_eq!(d.corners()[1].name(), "tt_0p70v_4p2k");
        assert_eq!(d.corners()[1].lib_name(), "cryo5_tt_0p70v_4p2k");
    }

    #[test]
    fn spec_rejects_malformed_input_with_reasons() {
        for (input, needle) in [
            ("", "empty corner spec"),
            ("V=0.7", "missing T axis"),
            ("T=", "empty value"),
            ("T=300;T=77", "duplicate T axis"),
            ("T=300,300", "duplicate temperature"),
            ("T=300;V=0.7,0.7", "duplicate vdd"),
            ("T=300;P=tt,tt", "duplicate process"),
            ("T=1.0", "outside the calibrated range"),
            ("T=500", "outside the calibrated range"),
            ("T=10.05", "not on the 0.1 K grid"),
            ("T=abc", "bad temperature"),
            ("T=300;V=0.7005", "not on the 1 mV grid"),
            ("T=300;V=2.0", "outside the calibrated range"),
            ("T=300;P=sf", "unknown process corner"),
            ("T=300;X=1", "unknown axis"),
            ("T=300;77", "is not AXIS=VALUE"),
        ] {
            let err = CornerSpec::parse(input).unwrap_err();
            assert!(
                err.contains(needle),
                "{input:?}: expected {needle:?} in {err:?}"
            );
        }
    }

    #[test]
    fn spec_round_trips_and_digest_ignores_input_order() {
        let a = CornerSpec::parse("T=300,77,4.2;V=0.65,0.70;P=ff,tt").unwrap();
        let b = CornerSpec::parse("P=tt,ff;V=0.70,0.65;T=4.2,300,77").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical_digest(), b.canonical_digest());
        let reparsed = CornerSpec::parse(&a.spec_string()).unwrap();
        assert_eq!(reparsed, a, "spec_string round-trips: {}", a.spec_string());
        assert_eq!(a.corners(), reparsed.corners());
    }

    #[test]
    fn corner_provenance_serde_round_trips() {
        for p in [
            CornerProvenance::Spice,
            CornerProvenance::Predicted {
                model_hash: "deadbeef".into(),
            },
            CornerProvenance::Derated {
                from: "tt_0p70v_300k".into(),
                margin: 0.15,
            },
            CornerProvenance::Failed {
                cause: "audit firewall: stage x has 1 unrepaired finding(s)".into(),
            },
        ] {
            let s = serde_json::to_string(&p).unwrap();
            let back: CornerProvenance = serde_json::from_str(&s).unwrap();
            assert_eq!(back, p, "{s}");
        }
    }

    fn signed_outcome(name: &str, temp: f64, fmax: f64) -> CornerOutcome {
        CornerOutcome {
            name: name.into(),
            temp,
            vdd: 0.70,
            process: Process::Tt,
            provenance: CornerProvenance::Spice,
            signed: true,
            fmax_hz: Some(fmax),
            mean_delay: Some(1.0e-11),
            cells: 40,
            degraded_arcs: 0,
            repaired: Vec::new(),
            fallbacks: Vec::new(),
        }
    }

    #[test]
    fn derate_borrows_nearest_signed_neighbor_with_margin() {
        let mut outcomes = vec![
            signed_outcome("tt_0p70v_300k", 300.0, 2.0e9),
            CornerOutcome::failed(
                Corner {
                    temp: 77.0,
                    vdd: 0.70,
                    process: Process::Tt,
                },
                "poisoned".into(),
            ),
            signed_outcome("tt_0p70v_10k", 10.0, 1.9e9),
        ];
        apply_derate(&mut outcomes, 0.20);
        let d = &outcomes[1];
        assert!(d.signed);
        assert_eq!(
            d.provenance,
            CornerProvenance::Derated {
                // ln(300/77) ≈ 1.36 beats ln(77/10) ≈ 2.04.
                from: "tt_0p70v_300k".into(),
                margin: 0.20,
            }
        );
        assert!((d.fmax_hz.unwrap() - 2.0e9 * 0.8).abs() < 1.0);
        // A failed corner in a group with no signed donor stays failed.
        let mut lonely = vec![CornerOutcome::failed(
            Corner {
                temp: 77.0,
                vdd: 0.65,
                process: Process::Ss,
            },
            "poisoned".into(),
        )];
        apply_derate(&mut lonely, 0.20);
        assert!(!lonely[0].signed);
        assert!(matches!(
            lonely[0].provenance,
            CornerProvenance::Failed { .. }
        ));
    }

    #[test]
    fn farm_key_is_spec_order_invariant_and_fault_independent() {
        let dir = std::env::temp_dir().join("cryo_farm_key_test");
        let mut cfg = crate::FlowConfig::fast(&dir);
        cfg.fault_plan = None;
        let spec_a = CornerSpec::parse("T=300,77;P=tt,ss").unwrap();
        let spec_b = CornerSpec::parse("P=ss,tt;T=77,300").unwrap();
        let farm_a = CornerFarm::new(CryoFlow::new(cfg.clone()), FarmConfig::new(spec_a.clone()));
        let farm_b = CornerFarm::new(CryoFlow::new(cfg.clone()), FarmConfig::new(spec_b));
        let key = farm_a.farm_key().unwrap();
        assert_eq!(key, farm_b.farm_key().unwrap(), "order-invariant");
        let mut poisoned = cfg.clone();
        poisoned.fault_plan =
            cryo_spice::FaultPlan::parse_spec("seed=9,corrupt=vth:1.0,scope=corner:x").unwrap();
        let farm_p = CornerFarm::new(CryoFlow::new(poisoned), FarmConfig::new(spec_a.clone()));
        assert_eq!(
            key,
            farm_p.farm_key().unwrap(),
            "plans must not move the namespace"
        );
        let mut jobs8 = cfg.clone();
        jobs8.jobs = 8;
        let farm_j = CornerFarm::new(CryoFlow::new(jobs8), FarmConfig::new(spec_a.clone()));
        assert_eq!(key, farm_j.farm_key().unwrap(), "jobs-invariant");
        let other = CornerFarm::new(
            CryoFlow::new(cfg),
            FarmConfig::new(CornerSpec::parse("T=300,77;P=tt,ff").unwrap()),
        );
        assert_ne!(key, other.farm_key().unwrap(), "corner set is in the key");
    }
}
