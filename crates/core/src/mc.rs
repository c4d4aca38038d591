//! The statistical-signoff stage of the flow: the [`McPolicy`] knob and
//! the Monte-Carlo → LVF → statistical-STA orchestration.
//!
//! With `CRYO_MC=n:<dies>[,k:<sigma>]` the supervised pipeline grows a
//! variation-aware shadow of its nominal signoff: the **golden cell set**
//! (every drive-1 topology) is Monte-Carlo characterized at the warm
//! anchor corner, its per-arc sigma tables are broadcast to the full
//! library by Pelgrom drive scaling, the cold corner gets its sigma from
//! the [`SigmaTransfer`] head fitted on a SPICE-MC'd probe subset (with
//! per-cell SPICE-MC fallback for anything the head cannot cover), and
//! both corners are re-timed in statistical mode so every endpoint slack
//! carries a `k`-sigma derate. Everything here is namespaced (`*_mc`
//! stores, `*_mc` stage blobs) and excluded from nominal cache keys, so
//! with MC off every existing artifact stays byte-identical.

use cryo_cells::topology::CellNetlist;
use cryo_cells::{cache, topology, CheckpointStore};
use cryo_liberty::{ArcSigma, Library, Lut2};
use cryo_lvf::transfer::{relative_sigma, SigmaTransfer};
use cryo_lvf::{mc_cache_key, McCharacterizer, McConfig, McReport};
use cryo_netlist::Design;
use cryo_spice::fault;
use cryo_sta::{analyze, MissingArcPolicy, StaConfig, TimingReport};
use serde::{Deserialize, Serialize};

use crate::flow::CryoFlow;
use crate::Result;

/// Default slack derate multiplier when `CRYO_MC=n:<dies>` omits `k:`.
pub const MC_DEFAULT_K_SIGMA: f64 = 3.0;
/// Sanity cap on the die count (a five-digit die count is a typo, not a
/// characterization plan).
pub const MC_MAX_DIES: usize = 4096;

/// Whether (and how) Monte-Carlo statistical characterization augments
/// the nominal signoff.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum McPolicy {
    /// No statistical pass; exact pre-MC behavior.
    #[default]
    Off,
    /// Sample `dies` process draws per golden cell and sign off timing at
    /// `mean + k_sigma · sigma`.
    Sample {
        /// Monte-Carlo dies per cell (`n:` field).
        dies: usize,
        /// Slack derate multiplier (`k:` field, default 3).
        k_sigma: f64,
    },
}

impl McPolicy {
    /// Die count a nominal-flow stage budget comfortably absorbs; see
    /// [`Self::budget_scale`].
    pub const BUDGET_BASELINE_DIES: usize = 4;

    /// Parse `off` or `n:<dies>[,k:<sigma>]` (case-insensitive).
    ///
    /// # Errors
    ///
    /// A human-readable reason when `s` names no policy, carries a zero /
    /// oversized die count, or a non-positive / non-finite sigma
    /// multiplier.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        if lower == "off" {
            return Ok(McPolicy::Off);
        }
        let Some(rest) = lower.strip_prefix("n:") else {
            return Err(format!(
                "unknown MC policy {s:?} (expected off or n:<dies>[,k:<sigma>])"
            ));
        };
        let (dies_str, k_str) = match rest.split_once(',') {
            Some((d, k)) => (d, Some(k)),
            None => (rest, None),
        };
        let dies: usize = dies_str
            .parse()
            .map_err(|_| format!("bad die count {dies_str:?} (expected an unsigned integer)"))?;
        if dies == 0 {
            return Err("die count must be >= 1".into());
        }
        if dies > MC_MAX_DIES {
            return Err(format!("die count must be <= {MC_MAX_DIES}"));
        }
        let k_sigma = match k_str {
            None => MC_DEFAULT_K_SIGMA,
            Some(k) => {
                let Some(v) = k.strip_prefix("k:") else {
                    return Err(format!("unknown MC field {k:?} (expected k:<sigma>)"));
                };
                let k_sigma: f64 = v
                    .parse()
                    .map_err(|_| format!("bad sigma multiplier {v:?} (expected a number)"))?;
                if !(k_sigma.is_finite() && k_sigma > 0.0) {
                    return Err(format!(
                        "sigma multiplier must be finite and > 0, got {k_sigma}"
                    ));
                }
                k_sigma
            }
        };
        Ok(McPolicy::Sample { dies, k_sigma })
    }

    /// The policy named by `CRYO_MC`, defaulting to `Off` when the
    /// variable is unset or malformed (the strict path is
    /// [`McPolicy::from_env_checked`], used by `validate_env`).
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("CRYO_MC")
            .ok()
            .and_then(|s| Self::parse(&s).ok())
            .unwrap_or_default()
    }

    /// Strictly parse `CRYO_MC`; unset means the default.
    ///
    /// # Errors
    ///
    /// The parse failure reason for a set-but-malformed variable.
    pub fn from_env_checked() -> std::result::Result<Self, String> {
        match std::env::var("CRYO_MC") {
            Ok(s) => Self::parse(&s),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Whether the statistical pass is enabled.
    #[must_use]
    pub fn is_on(self) -> bool {
        self != McPolicy::Off
    }

    /// Stage-checkpoint blob name for an MC characterization artifact.
    /// The per-cell MC stores are keyed by [`mc_cache_key`], but the
    /// stage-level blob needs its own discriminator: an `n:24` run must
    /// never resume the sigma tables an `n:4` run left behind in the
    /// same (deliberately MC-agnostic) pipeline store. Sigma tables
    /// depend on the die population, not on `k`.
    #[must_use]
    pub fn char_blob(self, base: &str) -> String {
        match self {
            McPolicy::Off => base.to_string(),
            McPolicy::Sample { dies, .. } => format!("{base}_n{dies}"),
        }
    }

    /// Stage-checkpoint blob name for a statistical STA artifact: the
    /// k-sigma derate is baked into the report, so `k` discriminates
    /// alongside the die count.
    #[must_use]
    pub fn sta_blob(self, base: &str) -> String {
        match self {
            McPolicy::Off => base.to_string(),
            McPolicy::Sample { dies, k_sigma } => format!("{base}_n{dies}_k{k_sigma}"),
        }
    }

    /// Multiplier for the supervisor's wall-clock budgets when this policy
    /// is active. MC characterization cost is linear in the die count, so a
    /// stage budget tuned for the nominal flow would time out any sizeable
    /// die population on a cold store (resume would still converge over
    /// repeated invocations, but a single signoff run should fit). Scales
    /// in units of [`Self::BUDGET_BASELINE_DIES`] dies.
    #[must_use]
    pub fn budget_scale(self) -> u32 {
        match self {
            McPolicy::Off => 1,
            McPolicy::Sample { dies, .. } => {
                u32::try_from(dies.div_ceil(Self::BUDGET_BASELINE_DIES))
                    .unwrap_or(u32::MAX)
                    .max(1)
            }
        }
    }
}

/// One corner's Monte-Carlo outcome: the LVF-annotated signoff library
/// plus everything needed to reconstruct how its sigma was obtained.
/// Doubles as the `charlib*_mc` stage-checkpoint artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McCornerOutcome {
    /// The nominal library with LVF sigma attached to every covered arc.
    pub lib: Library,
    /// The golden-set Monte-Carlo report (restored/simulated/failed).
    pub report: McReport,
    /// The fitted cross-corner transfer head, when this corner's sigma
    /// was predicted rather than fully SPICE-MC'd.
    pub transfer: Option<SigmaTransfer>,
    /// Cells whose predicted sigma was replaced by per-cell SPICE-MC.
    pub fallbacks: Vec<String>,
    /// Cells the broadcast could not cover (no golden sibling with
    /// matching arcs); their arcs carry no sigma.
    pub uncovered: Vec<String>,
    /// Library-pooled mean relative delay sigma (`mean sigma / mean
    /// delay` averaged over covered cells).
    pub mean_rel_sigma: f64,
}

/// One corner's row of the pipeline-level MC summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McCornerSummary {
    /// Corner label (`300k` / `10k`).
    pub corner: String,
    /// Golden cells carrying pooled moments.
    pub cells: usize,
    /// Golden cells restored from moment checkpoints (zero simulation).
    pub restored: usize,
    /// Golden cells simulated this run.
    pub simulated: usize,
    /// Golden cells whose die population failed.
    pub failed: usize,
    /// Library-pooled mean relative delay sigma.
    pub mean_rel_sigma: f64,
    /// Fitted transfer ratio (target / anchor relative sigma); `None`
    /// when this corner was fully SPICE-MC'd.
    pub transfer_ratio: Option<f64>,
    /// Per-cell SPICE-MC fallbacks taken after prediction.
    pub fallbacks: usize,
    /// Critical-path sigma from the statistical STA pass, seconds.
    pub critical_path_sigma: f64,
    /// Worst `k`-sigma-derated endpoint slack, seconds.
    pub worst_slack_k_sigma: f64,
}

/// Pipeline-level statistical-signoff summary, attached to
/// `PipelineReport` only when `CRYO_MC` armed a sampling policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McSummary {
    /// Dies sampled per golden cell.
    pub dies: usize,
    /// Slack derate multiplier used by the statistical STA pass.
    pub k_sigma: f64,
    /// Per-corner outcomes, warm anchor first.
    pub corners: Vec<McCornerSummary>,
}

/// The golden cell set: the minimum-drive member of every logic family
/// with timing arcs (drive 1 for most families; the clock tree starts at
/// drive 2). Small enough to Monte-Carlo, rich enough that every drive
/// sibling in the library has a golden anchor to broadcast sigma from.
#[must_use]
pub fn golden_cells() -> Vec<CellNetlist> {
    let mut golden: Vec<CellNetlist> = Vec::new();
    for c in topology::standard_cell_set() {
        if c.is_tie() {
            continue;
        }
        let base = family_base(&c.name);
        match golden.iter_mut().find(|g| family_base(&g.name) == base) {
            Some(g) if c.drive < g.drive => *g = c,
            Some(_) => {}
            None => golden.push(c),
        }
    }
    golden
}

/// `NAND2x4` → `NAND2`: the drive-family key a cell's golden anchor is
/// looked up by. Names without a drive suffix are their own family.
fn family_base(name: &str) -> &str {
    match name.rsplit_once('x') {
        Some((base, drive)) if drive.parse::<u32>().is_ok() => base,
        _ => name,
    }
}

/// The cold-corner probe subset: every third golden cell (deterministic,
/// spans the logic families). The rest of the golden set gets predicted
/// sigma from the transfer head.
fn probe_cells(golden: &[CellNetlist]) -> Vec<CellNetlist> {
    golden
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, c)| c.clone())
        .collect()
}

/// The golden sibling of `name` in `golden`: the same-family cell
/// (`NAND2x4` → `NAND2x1`, `CLKBUFx8` → `CLKBUFx2`), if one exists.
fn golden_sibling<'a>(golden: &'a Library, name: &str) -> Option<&'a cryo_liberty::Cell> {
    let base = family_base(name);
    golden.cells().iter().find(|g| family_base(&g.name) == base)
}

/// Mean of a table's entries.
fn table_mean(t: &Lut2) -> f64 {
    let vals = t.values();
    if vals.is_empty() {
        return 0.0;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Scalar relative sigma of one golden table pair, guarded for
/// degenerate (zero-delay) tables.
fn rel_of(sigma: &Lut2, nominal: &Lut2) -> f64 {
    let d = table_mean(nominal);
    if d > 0.0 {
        (table_mean(sigma) / d).max(0.0)
    } else {
        0.0
    }
}

/// Attach LVF sigma to every cell of `nominal` from the golden-set MC
/// library `golden`:
///
/// - a cell that **is** golden keeps its exact per-entry MC sigma tables
///   (same cell, same grid — attached verbatim);
/// - a drive-`d` sibling gets its golden cell's per-arc scalar relative
///   sigma scaled by `sqrt(g/d)` (Pelgrom: mismatch variance is inverse
///   in device area, drive multiplies fins, and the golden anchor sits
///   at drive `g`) applied to its own nominal tables.
///
/// Returns the annotated library and the cells left without sigma (no
/// golden sibling, mismatched arc count, or a failed golden population).
#[must_use]
pub fn broadcast_sigma(nominal: &Library, golden: &Library) -> (Library, Vec<String>) {
    let mut out = nominal.clone();
    let mut uncovered = Vec::new();
    let mut annotated = Vec::new();
    for cell in nominal.cells() {
        let sib = golden_sibling(golden, &cell.name);
        let Some(g) = sib.filter(|g| g.arcs.len() == cell.arcs.len()) else {
            if !cell.arcs.is_empty() {
                uncovered.push(cell.name.clone());
            }
            continue;
        };
        let exact = g.name == cell.name;
        let mut c = cell.clone();
        let scale = (g.drive.max(1) as f64 / cell.drive.max(1) as f64).sqrt();
        for (arc, garc) in c.arcs.iter_mut().zip(&g.arcs) {
            let Some(gsig) = &garc.sigma else { continue };
            arc.sigma = Some(if exact {
                gsig.clone()
            } else {
                ArcSigma {
                    cell_rise: arc
                        .cell_rise
                        .scaled(rel_of(&gsig.cell_rise, &garc.cell_rise) * scale),
                    cell_fall: arc
                        .cell_fall
                        .scaled(rel_of(&gsig.cell_fall, &garc.cell_fall) * scale),
                    rise_transition: arc
                        .rise_transition
                        .scaled(rel_of(&gsig.rise_transition, &garc.rise_transition) * scale),
                    fall_transition: arc
                        .fall_transition
                        .scaled(rel_of(&gsig.fall_transition, &garc.fall_transition) * scale),
                }
            });
        }
        annotated.push(c);
    }
    for c in annotated {
        out.add_cell(c);
    }
    (out, uncovered)
}

/// Library-pooled mean relative sigma over cells that carry LVF data.
fn pooled_rel_sigma(lib: &Library) -> f64 {
    let rels: Vec<f64> = lib.cells().iter().filter_map(relative_sigma).collect();
    if rels.is_empty() {
        return 0.0;
    }
    rels.iter().sum::<f64>() / rels.len() as f64
}

impl CryoFlow {
    /// The per-corner Monte-Carlo configuration: the corner's own grid
    /// (with the flow `jobs` override) under the flow seed.
    fn mc_config(&self, temp: f64, dies: usize) -> McConfig {
        let cfg = self.config();
        let mut char_cfg = if temp < 150.0 {
            cfg.char_10k.clone()
        } else {
            cfg.char_300k.clone()
        };
        if cfg.jobs != 0 {
            char_cfg.jobs = cfg.jobs;
        }
        McConfig::new(dies, cfg.seed, char_cfg)
    }

    /// Monte-Carlo characterize the golden set at the **anchor** corner
    /// and broadcast its sigma over `nominal`. Stores live under
    /// `<corner>_mc` keyed by [`mc_cache_key`], so nominal caches and
    /// checkpoints are untouched and byte-identical with MC off.
    ///
    /// # Errors
    ///
    /// Cache-key construction or checkpoint I/O failures. Per-cell
    /// characterization failures degrade to uncovered cells instead.
    pub fn mc_anchor_library(
        &self,
        temp: f64,
        nominal: &Library,
        dies: usize,
    ) -> Result<McCornerOutcome> {
        let cfg = self.config();
        let _fault_guard = cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.effective_cards();
        let mcfg = self.mc_config(temp, dies);
        let golden = golden_cells();
        let name = format!("cryo5_tt_0p70v_{}k_mc", temp as u32);
        let key = mc_cache_key(&nfet, &pfet, &mcfg, &cache::cell_set_tag(&golden))?;
        let store = open_mc_store(&cfg.cache_dir, &name, &key)?;
        let mc = McCharacterizer::new(&nfet, &pfet, mcfg);
        let (glib, report) = mc.characterize_library(&name, &golden, store.as_ref());
        let (lib, uncovered) = broadcast_sigma(nominal, &glib);
        let mean_rel_sigma = pooled_rel_sigma(&lib);
        Ok(McCornerOutcome {
            lib,
            report,
            transfer: None,
            fallbacks: Vec::new(),
            uncovered,
            mean_rel_sigma,
        })
    }

    /// Predict the **target** corner's sigma from the anchor corner's MC
    /// outcome: SPICE-MC a probe subset of the golden set at `temp`, fit
    /// the [`SigmaTransfer`] head, apply it to `nominal`, then replace
    /// probe cells with their measured sigma and run per-cell SPICE-MC
    /// for anything the head could not cover. When the fit itself is
    /// impossible (no shared probe sigma), degrades to a full golden MC
    /// sweep at the target corner.
    ///
    /// # Errors
    ///
    /// Cache-key construction or checkpoint I/O failures.
    pub fn mc_transfer_library(
        &self,
        temp: f64,
        nominal: &Library,
        anchor: &McCornerOutcome,
        dies: usize,
    ) -> Result<McCornerOutcome> {
        let cfg = self.config();
        let _fault_guard = cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.effective_cards();
        let mcfg = self.mc_config(temp, dies);
        let golden = golden_cells();
        let probes = probe_cells(&golden);
        let name = format!("cryo5_tt_0p70v_{}k_mc", temp as u32);
        let key = mc_cache_key(&nfet, &pfet, &mcfg, &cache::cell_set_tag(&probes))?;
        let store = open_mc_store(&cfg.cache_dir, &name, &key)?;
        let mc = McCharacterizer::new(&nfet, &pfet, mcfg);
        let (probe_lib, mut report) = mc.characterize_library(&name, &probes, store.as_ref());

        let Some(fit) = SigmaTransfer::fit(&anchor.lib, &probe_lib) else {
            // No usable probe overlap: fall back to the full golden sweep
            // (same machinery as the anchor corner, own store key).
            return self.mc_anchor_library(temp, nominal, dies);
        };

        // The probes feed only the fit: every transfer-covered cell gets
        // *predicted* sigma (anchor relative sigma × fitted ratio), probes
        // included, so the whole corner shares one estimator. Mixing the
        // probes' own small-population sample sigma in would make the
        // cross-corner ordering audit compare two different estimators and
        // trip on sampling noise rather than physics.
        let (mut lib, mut fallbacks) = fit.apply(nominal, &anchor.lib);
        // Per-cell SPICE-MC for cells the head could not cover. Their
        // netlists are looked up by name; anything unknown (macro-like
        // entries) stays uncovered.
        let mut uncovered = Vec::new();
        for fname in std::mem::take(&mut fallbacks) {
            let Some(net) = topology::by_name(&fname) else {
                uncovered.push(fname);
                continue;
            };
            match mc.characterize_cell_checkpointed(&net, store.as_ref()) {
                Ok((fcell, moments, restored)) => {
                    let mut annotated = lib.cell(&fname).cloned().unwrap_or_else(|_| fcell.clone());
                    for (arc, farc) in annotated.arcs.iter_mut().zip(&fcell.arcs) {
                        arc.sigma = farc.sigma.clone();
                    }
                    lib.add_cell(annotated);
                    report.cells.push(moments);
                    if restored {
                        report.restored.push(fname.clone());
                    } else {
                        report.simulated.push(fname.clone());
                    }
                    fallbacks.push(fname);
                }
                Err(e) => {
                    report.failed.push(format!("{fname}: {e}"));
                    uncovered.push(fname);
                }
            }
        }
        let mean_rel_sigma = pooled_rel_sigma(&lib);
        Ok(McCornerOutcome {
            lib,
            report,
            transfer: Some(fit),
            fallbacks,
            uncovered,
            mean_rel_sigma,
        })
    }

    /// [`CryoFlow::timing_with_policy`] in statistical mode: every
    /// endpoint slack is derated by `k_sigma` RSS-accumulated sigmas and
    /// the report carries per-path sigma provenance.
    ///
    /// # Errors
    ///
    /// STA failures (unmapped cells, loops).
    pub fn timing_statistical(
        &self,
        design: &Design,
        lib: &Library,
        lib300_mean_delay: f64,
        policy: MissingArcPolicy,
        k_sigma: f64,
    ) -> Result<TimingReport> {
        let scale = if lib300_mean_delay > 0.0 {
            lib.stats().mean_delay / lib300_mean_delay
        } else {
            1.0
        };
        let sta_cfg = StaConfig {
            macro_delay_scale: scale,
            missing_arc_policy: policy,
            slack_k_sigma: Some(k_sigma),
            ..StaConfig::default()
        };
        Ok(analyze(design, lib, &sta_cfg)?)
    }
}

/// Open an MC checkpoint store, degrading to `None` (no resume support)
/// when the disk is full — durability degrades, never the run.
fn open_mc_store(dir: &std::path::Path, name: &str, key: &str) -> Result<Option<CheckpointStore>> {
    match CheckpointStore::open(dir, name, key) {
        Ok(store) => Ok(Some(store)),
        Err(e) if e.is_no_space() => {
            eprintln!("warning: {name} checkpoint store unavailable ({e}); continuing without checkpointing");
            Ok(None)
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_specs_and_rejects_malformed_ones() {
        assert_eq!(McPolicy::parse("off").unwrap(), McPolicy::Off);
        assert_eq!(McPolicy::parse("OFF").unwrap(), McPolicy::Off);
        assert_eq!(
            McPolicy::parse("n:24").unwrap(),
            McPolicy::Sample {
                dies: 24,
                k_sigma: MC_DEFAULT_K_SIGMA
            }
        );
        assert_eq!(
            McPolicy::parse("n:24,k:3.5").unwrap(),
            McPolicy::Sample {
                dies: 24,
                k_sigma: 3.5
            }
        );
        for bad in [
            "on",
            "n:",
            "n:0",
            "n:abc",
            "n:24,",
            "n:24,k:",
            "n:24,k:-1",
            "n:24,k:nan",
            "n:24,x:2",
            "n:9999999",
        ] {
            assert!(McPolicy::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn default_policy_is_off_and_sample_is_on() {
        assert_eq!(McPolicy::default(), McPolicy::Off);
        assert!(!McPolicy::Off.is_on());
        assert!(McPolicy::Sample {
            dies: 4,
            k_sigma: 3.0
        }
        .is_on());
    }

    #[test]
    fn stage_blob_names_discriminate_on_dies_and_k() {
        // The pipeline store is deliberately MC-agnostic, so the blob
        // names are the only thing keeping an n:24 run from resuming an
        // n:4 run's sigma tables — or a k:3 STA from a k:2 one.
        let a = McPolicy::Sample {
            dies: 4,
            k_sigma: 3.0,
        };
        let b = McPolicy::Sample {
            dies: 24,
            k_sigma: 3.0,
        };
        let c = McPolicy::Sample {
            dies: 24,
            k_sigma: 2.0,
        };
        assert_eq!(a.char_blob("charlib300_mc"), "charlib300_mc_n4");
        assert_ne!(a.char_blob("charlib300_mc"), b.char_blob("charlib300_mc"));
        assert_eq!(
            b.char_blob("x"),
            c.char_blob("x"),
            "sigma tables are k-independent"
        );
        assert_eq!(b.sta_blob("sta300_mc"), "sta300_mc_n24_k3");
        assert_ne!(b.sta_blob("sta300_mc"), c.sta_blob("sta300_mc"));
    }

    #[test]
    fn budget_scale_tracks_the_die_count() {
        let sample = |dies| McPolicy::Sample { dies, k_sigma: 3.0 };
        assert_eq!(McPolicy::Off.budget_scale(), 1);
        assert_eq!(sample(1).budget_scale(), 1);
        assert_eq!(sample(McPolicy::BUDGET_BASELINE_DIES).budget_scale(), 1);
        assert_eq!(sample(McPolicy::BUDGET_BASELINE_DIES + 1).budget_scale(), 2);
        assert_eq!(sample(24).budget_scale(), 6);
        assert_eq!(sample(MC_MAX_DIES).budget_scale(), 1024);
    }

    #[test]
    fn golden_set_anchors_every_family_at_its_minimum_drive() {
        let golden = golden_cells();
        assert!(golden.len() >= 8);
        assert!(golden.iter().all(|c| !c.is_tie()));
        // One anchor per family, at that family's minimum drive.
        for c in topology::standard_cell_set() {
            if c.is_tie() {
                continue;
            }
            let anchors: Vec<_> = golden
                .iter()
                .filter(|g| family_base(&g.name) == family_base(&c.name))
                .collect();
            assert_eq!(anchors.len(), 1, "{} needs exactly one anchor", c.name);
            assert!(anchors[0].drive <= c.drive);
        }
        let probes = probe_cells(&golden);
        assert!(!probes.is_empty() && probes.len() < golden.len());
    }

    #[test]
    fn family_base_strips_the_drive_suffix() {
        assert_eq!(family_base("NAND2x4"), "NAND2");
        assert_eq!(family_base("CLKBUFx12"), "CLKBUF");
        assert_eq!(family_base("TIEHI"), "TIEHI");
    }
}
