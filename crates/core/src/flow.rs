//! The cross-stack flow orchestrator.

use std::path::PathBuf;

use cryo_cells::{cache, topology, CharConfig, CharReport, Characterizer, CheckpointStore};
use cryo_device::{corner_die, ModelCard, Polarity, VariationModel};
use cryo_hdc::IqEncoder;
use cryo_liberty::{audit_library, AuditReport, Library};
use cryo_netlist::{build_soc, Design, SocConfig};
use cryo_power::{analyze_power, ActivityProfile, PowerConfig, PowerReport};
use cryo_qubit::{Calibration, HdcClassifier, QuantumDevice};
use cryo_riscv::asm::assemble;
use cryo_riscv::kernels::{dhrystone_source, hdc_source_rounds, knn_source_rounds, HDC_LEVELS};
use cryo_riscv::{PipelineConfig, PipelineModel, RunStats};
use cryo_spice::{fault, FaultPlan};
use cryo_sta::{analyze, MissingArcPolicy, StaConfig, TimingReport};

use crate::audit::AuditPolicy;
use crate::corners::{Corner, Process};
use crate::mc::McPolicy;
use crate::surrogate::SurrogatePolicy;
use crate::{CoreError, Result};

/// The paper's cooling budget at 10 K, watts (Sec. I-B).
pub const COOLING_BUDGET_10K: f64 = 0.100;
/// The decoherence time of the paper's IBM Falcon processor, seconds.
pub const DECOHERENCE_TIME: f64 = 110e-6;
/// Fig. 7's analysis clock, hertz.
pub const FIG7_CLOCK: f64 = 1e9;
/// The paper's kNN dynamic power at 300 K used as the activity-scale
/// calibration anchor (DESIGN.md §5), watts.
pub const KNN_DYNAMIC_300K: f64 = 63.5e-3;

/// Flow configuration: grids, SoC size, seeds.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Where characterized libraries are cached.
    pub cache_dir: PathBuf,
    /// Characterization grid for the 300 K corner.
    pub char_300k: CharConfig,
    /// Characterization grid for the 10 K corner.
    pub char_10k: CharConfig,
    /// SoC generator configuration.
    pub soc: SocConfig,
    /// Seed for the quantum device and HDC item memories.
    pub seed: u64,
    /// Minimum fraction of the standard-cell set that must land in a
    /// characterized library (directly, resumed, or derated) before the
    /// flow will sign off on the corner.
    pub coverage_floor: f64,
    /// Optional fault-injection plan installed around characterization;
    /// populated from the `CRYO_FAULTS` environment variable by the
    /// constructors so experiment binaries can inject without recompiling.
    pub fault_plan: Option<FaultPlan>,
    /// Worker threads for parallel library characterization; copied into
    /// both corners' `CharConfig::jobs`. `0` (the default) auto-detects —
    /// `CRYO_JOBS` wins, then available parallelism. `1` forces the serial
    /// path. Any value produces byte-identical libraries, so this does not
    /// participate in cache keys.
    pub jobs: usize,
    /// What the audit firewall does with physical-invariant findings at
    /// stage boundaries; populated from `CRYO_AUDIT` by the constructors
    /// (default [`AuditPolicy::Warn`]). Auditing never changes clean
    /// artifacts, so this does not participate in cache keys.
    pub audit_policy: AuditPolicy,
    /// Whether the cold corner is predicted by the learned surrogate
    /// instead of SPICE-characterized; populated from `CRYO_SURROGATE` by
    /// the constructors (default [`SurrogatePolicy::Off`]). Predicted
    /// libraries are never promoted to the SPICE cache and the surrogate's
    /// own stores are namespaced, so this does not participate in cache
    /// keys — SPICE artifacts are byte-identical with the surrogate on or
    /// off.
    pub surrogate_policy: SurrogatePolicy,
    /// Whether Monte-Carlo statistical characterization augments the
    /// signoff with LVF sigma tables and a `k`-sigma-derated statistical
    /// STA pass; populated from `CRYO_MC` by the constructors (default
    /// [`McPolicy::Off`]). Every MC store and stage blob is namespaced
    /// (`*_mc`), so this does not participate in nominal cache keys —
    /// nominal artifacts are byte-identical with MC on or off.
    pub mc_policy: McPolicy,
}

impl FlowConfig {
    /// The paper's configuration: full 7×7 grids, full SoC. Characterization
    /// takes minutes on first run and is disk-cached afterwards.
    #[must_use]
    pub fn full(cache_dir: impl Into<PathBuf>) -> Self {
        Self {
            cache_dir: cache_dir.into(),
            char_300k: CharConfig::full(300.0),
            char_10k: CharConfig::full(10.0),
            soc: SocConfig::default(),
            seed: 7,
            coverage_floor: 0.95,
            fault_plan: FaultPlan::from_env(),
            jobs: 0,
            audit_policy: AuditPolicy::from_env(),
            surrogate_policy: SurrogatePolicy::from_env(),
            mc_policy: McPolicy::from_env(),
        }
    }

    /// Reduced grids and a scaled-down uncore for tests and quick runs.
    #[must_use]
    pub fn fast(cache_dir: impl Into<PathBuf>) -> Self {
        Self {
            cache_dir: cache_dir.into(),
            char_300k: CharConfig::fast(300.0),
            char_10k: CharConfig::fast(10.0),
            soc: SocConfig {
                uncore_tiles: 8,
                ..SocConfig::default()
            },
            seed: 7,
            coverage_floor: 0.95,
            fault_plan: FaultPlan::from_env(),
            jobs: 0,
            audit_policy: AuditPolicy::from_env(),
            surrogate_policy: SurrogatePolicy::from_env(),
            mc_policy: McPolicy::from_env(),
        }
    }
}

/// A workload the SoC can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// kNN classification of `n` qubits.
    Knn {
        /// Qubit count.
        n: usize,
    },
    /// HDC classification of `n` qubits.
    Hdc {
        /// Qubit count.
        n: usize,
        /// Enable the `Zbb cpop` hardware-popcount ablation.
        cpop: bool,
    },
    /// The Dhrystone-like integer mix.
    Dhrystone,
}

/// Timed workload outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Which workload ran.
    pub workload: Workload,
    /// Pipeline statistics of the full (multi-round) run.
    pub stats: RunStats,
    /// Steady-state cycles per classification (marginal rounds); equals
    /// overall CPI-derived cost for Dhrystone.
    pub cycles_per_item: f64,
}

/// The flow orchestrator.
#[derive(Debug, Clone)]
pub struct CryoFlow {
    /// n-FinFET model card (calibrated).
    pub nfet: ModelCard,
    /// p-FinFET model card (calibrated).
    pub pfet: ModelCard,
    cfg: FlowConfig,
}

impl CryoFlow {
    /// Build the flow on the nominal (pre-calibrated) model cards.
    #[must_use]
    pub fn new(cfg: FlowConfig) -> Self {
        Self {
            nfet: ModelCard::nominal(Polarity::N),
            pfet: ModelCard::nominal(Polarity::P),
            cfg,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Libraries
    // ------------------------------------------------------------------

    /// Characterize (or load from cache) the library at `temp` kelvin.
    ///
    /// # Errors
    ///
    /// Characterization, cache I/O, or coverage-floor failures.
    pub fn library(&self, temp: f64) -> Result<Library> {
        self.library_with_report(temp).map(|(lib, _)| lib)
    }

    /// Characterize (or load from cache) the library at `temp` kelvin,
    /// returning the structured per-cell [`CharReport`] alongside it.
    ///
    /// This is the resilient path: each cell gets the retry ladder,
    /// exhausted cells are derated from drive siblings or skipped, finished
    /// cells are checkpointed under the cache directory so an interrupted
    /// run resumes without re-simulation, and the configured fault plan (if
    /// any) is installed for the duration of characterization.
    ///
    /// # Errors
    ///
    /// [`CoreError::Coverage`] when the achieved coverage falls below
    /// `FlowConfig::coverage_floor`; cache I/O failures otherwise.
    pub fn library_with_report(&self, temp: f64) -> Result<(Library, CharReport)> {
        let char_cfg = self.base_char_cfg(temp);
        let stage = if temp < 150.0 {
            "charlib10"
        } else {
            "charlib300"
        };
        // The fault guard goes up before the cards and the cache key are
        // derived: a `corrupt=vth` plan poisons the effective cards, which
        // changes the key, so a poisoned run can never read or write the
        // clean cache entry.
        let _fault_guard = self.cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.effective_cards();
        let name = format!("cryo5_tt_0p70v_{}k", temp as u32);
        self.characterize_corner(&name, stage, &char_cfg, &nfet, &pfet)
    }

    /// Characterize (or load from cache) one named corner from explicit
    /// model cards — the shared engine behind [`CryoFlow::library_with_report`]
    /// and the farm's [`CryoFlow::corner_library_with_report`]. Callers
    /// install the fault guard *before* deriving the cards so a poisoned
    /// card set changes the cache key here.
    fn characterize_corner(
        &self,
        name: &str,
        stage: &str,
        char_cfg: &CharConfig,
        nfet: &ModelCard,
        pfet: &ModelCard,
    ) -> Result<(Library, CharReport)> {
        let policy = self.cfg.audit_policy;
        let cells = topology::standard_cell_set();
        let tag = cache::cell_set_tag(&cells);
        let key = cache::cache_key(nfet, pfet, char_cfg, &tag)?;
        let audit_cfg = crate::audit::lib_audit_config(char_cfg);
        if let Some(lib) = cache::load(&self.cfg.cache_dir, name, &key) {
            // Cached corners are audited too — the cache is exactly where
            // silent at-rest corruption lives. A dirty cached corner under
            // Gate is discarded and rebuilt; under Warn it is used as-is.
            let cache_audit = if policy.is_on() {
                audit_library(stage, &lib, &audit_cfg)
            } else {
                AuditReport::default()
            };
            if cache_audit.is_clean() || policy != AuditPolicy::Gate {
                warn_findings(name, &cache_audit);
                let mut report = CharReport {
                    outcomes: lib
                        .cells()
                        .iter()
                        .map(|c| cryo_cells::CellOutcome {
                            name: c.name.clone(),
                            status: cryo_cells::CellStatus::Cached,
                            attempts: 0,
                            fault: None,
                            derated_from: None,
                        })
                        .collect(),
                    audit: cache_audit,
                    ..CharReport::default()
                };
                report.sort_by_name();
                return Ok((lib, report));
            }
            eprintln!(
                "warning: cached {name} failed its audit ({}); re-characterizing",
                cache_audit.summary()
            );
        }
        // A checkpoint store that cannot even be opened because the disk is
        // full degrades durability, never the run: characterize without
        // resume support and say so.
        let checkpoint = match CheckpointStore::open(&self.cfg.cache_dir, name, &key) {
            Ok(store) => Some(store),
            Err(e) if e.is_no_space() => {
                eprintln!(
                    "warning: {name} checkpoint store unavailable ({e}); \
                     continuing without checkpointing"
                );
                None
            }
            Err(e) => return Err(e.into()),
        };
        let engine = Characterizer::new(nfet, pfet, char_cfg.clone());
        let (mut lib, mut report) =
            engine.characterize_library_robust(name, &cells, checkpoint.as_ref());
        if policy.is_on() {
            let mut audit_rep = audit_library(stage, &lib, &audit_cfg);
            if !audit_rep.is_clean() && policy == AuditPolicy::Gate {
                // Quarantine only the offending cells and re-characterize
                // just those; every clean cell resumes from its checkpoint
                // with zero re-simulation. Generation 1 tells the fault
                // injector's transient corrupt= sites not to fire again.
                let offenders = audit_rep.offending_cells();
                if let Some(cp) = &checkpoint {
                    for cell in &offenders {
                        cp.remove(cell);
                    }
                }
                let repair = Characterizer::new(nfet, pfet, char_cfg.clone()).with_generation(1);
                let (lib2, report2) =
                    repair.characterize_library_robust(name, &cells, checkpoint.as_ref());
                let recheck = audit_library(stage, &lib2, &audit_cfg);
                if !recheck.is_clean() {
                    return Err(CoreError::AuditFailed {
                        stage: stage.to_string(),
                        report: recheck,
                    });
                }
                lib = lib2;
                report = report2;
                audit_rep = AuditReport {
                    findings: Vec::new(),
                    repaired: offenders,
                };
            }
            warn_findings(name, &audit_rep);
            report.audit = audit_rep;
        }
        let expected: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        let coverage = lib.coverage(&expected);
        if coverage < self.cfg.coverage_floor {
            return Err(CoreError::Coverage {
                corner: name.to_string(),
                coverage,
                floor: self.cfg.coverage_floor,
                missing: lib.missing_cells(&expected),
            });
        }
        // Only fully covered, audit-clean corners are promoted to the
        // library-level cache; partial corners keep their checkpoints so
        // the missing cells are retried on the next run.
        if report.failed().is_empty()
            && report.derated().is_empty()
            && report.audit.findings.is_empty()
        {
            match cache::store(&self.cfg.cache_dir, name, &key, &lib) {
                // Only a successful promotion may clear the checkpoints:
                // on a full disk the per-cell entries are the sole durable
                // copy of this corner, so they stay.
                Ok(()) => {
                    if let Some(cp) = &checkpoint {
                        cp.clear();
                    }
                }
                Err(e) if e.is_no_space() => {
                    eprintln!(
                        "warning: {name} cache promotion shed ({e}); \
                         keeping per-cell checkpoints as the durable copy"
                    );
                }
                Err(e) => return Err(e.into()),
            }
        } else {
            eprintln!("warning: {name} degraded — {}", report.summary());
            for o in report.derated().into_iter().chain(report.failed()) {
                eprintln!(
                    "warning:   {} after {} attempts: {}{}",
                    o.name,
                    o.attempts,
                    o.fault.as_deref().unwrap_or("unknown fault"),
                    o.derated_from
                        .as_deref()
                        .map(|d| format!(" (derated from {d})"))
                        .unwrap_or_default()
                );
            }
        }
        Ok((lib, report))
    }

    /// The model cards after the fault injector's `corrupt=vth` site: a
    /// plausible-but-wrong sign flip on the cryogenic Vth shift parameter.
    /// Both the cache key and the characterizer are built from these, so a
    /// poisoned card can never pollute the clean cache; the device audit at
    /// the calibrate stage is what catches the flip (a negative `tvth`
    /// claims Vth *drops* when cooled — physically backwards for FinFETs).
    /// Only fires while a fault plan is installed, so clean flows see the
    /// calibrated cards unchanged.
    #[must_use]
    pub fn effective_cards(&self) -> (ModelCard, ModelCard) {
        let mut nfet = self.nfet.clone();
        let mut pfet = self.pfet.clone();
        if fault::should_corrupt(fault::CorruptKind::Vth, "modelcard", 0) {
            nfet.tvth = -nfet.tvth;
            pfet.tvth = -pfet.tvth;
        }
        (nfet, pfet)
    }

    /// The legacy two-point characterization grid for `temp`, with the
    /// flow-level `jobs` override applied.
    fn base_char_cfg(&self, temp: f64) -> CharConfig {
        let mut char_cfg = if temp < 150.0 {
            self.cfg.char_10k.clone()
        } else {
            self.cfg.char_300k.clone()
        };
        if self.cfg.jobs != 0 {
            char_cfg.jobs = self.cfg.jobs;
        }
        char_cfg
    }

    /// The characterization grid for a farm corner: the nearest legacy
    /// grid (the 10 K one below 150 K, the 300 K one above) re-pointed at
    /// the corner's exact temperature and supply. For the legacy corners
    /// themselves this is byte-identical to `CryoFlow::base_char_cfg`,
    /// so the farm reuses every cache and checkpoint the two-point flow
    /// already built.
    #[must_use]
    pub fn corner_char_cfg(&self, corner: &Corner) -> CharConfig {
        let mut char_cfg = self.base_char_cfg(corner.temp);
        char_cfg.temp = corner.temp;
        char_cfg.vdd = corner.vdd;
        char_cfg
    }

    /// The pure (fault-free) model cards for a process corner: the
    /// calibrated nominal pair pushed to its deterministic ±3-sigma
    /// extreme by [`corner_die`] (`tt` returns the calibrated cards bit
    /// for bit). No fault site is consulted here — the farm manifest key
    /// is derived from these, so the key is identical with injection on
    /// or off.
    #[must_use]
    pub fn process_cards(&self, process: Process) -> (ModelCard, ModelCard) {
        let var = VariationModel::default();
        let sign = process.sigma_sign();
        (
            corner_die(&self.nfet, &var, sign),
            corner_die(&self.pfet, &var, sign),
        )
    }

    /// [`CryoFlow::effective_cards`] generalized to a farm corner: the
    /// process cards for `corner`, after the injector's corner-scoped
    /// `corrupt=vth` site. The site's salt *and* fault context are
    /// `corner:<name>`, so a plan like
    /// `corrupt=vth:1.0,scope=corner:ss_0p65v_77k` poisons exactly one
    /// corner of the farm; the draw is stateless, so repeated calls agree
    /// and parallel/serial runs stay byte-identical. Poisoned cards
    /// change the cache key, so a poisoned corner can never pollute a
    /// clean cache entry.
    #[must_use]
    pub fn corner_cards(&self, corner: &Corner) -> (ModelCard, ModelCard) {
        let (mut nfet, mut pfet) = self.process_cards(corner.process);
        if fault::is_active() {
            let label = format!("corner:{}", corner.name());
            fault::set_context(&label);
            if fault::should_corrupt(fault::CorruptKind::Vth, &label, 0) {
                nfet.tvth = -nfet.tvth;
                pfet.tvth = -pfet.tvth;
            }
            fault::set_context("");
        }
        (nfet, pfet)
    }

    /// [`CryoFlow::library_with_report`] for an arbitrary farm corner:
    /// same engine (cache → checkpointed robust characterization →
    /// audit-gated repair → coverage floor), with the corner's own cache
    /// key, library name, and `corner:<name>` stage label.
    ///
    /// # Errors
    ///
    /// Same as [`CryoFlow::library_with_report`].
    pub fn corner_library_with_report(&self, corner: &Corner) -> Result<(Library, CharReport)> {
        let char_cfg = self.corner_char_cfg(corner);
        let _fault_guard = self.cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.corner_cards(corner);
        self.characterize_corner(&corner.lib_name(), &corner.name(), &char_cfg, &nfet, &pfet)
    }

    /// Targeted re-characterization for the supervisor's cross-corner
    /// repair: seed the checkpoint store from `current`'s clean cells,
    /// evict `offenders`, and re-run at generation 1 so only the offending
    /// cells are re-simulated. Returns the repaired library and the
    /// characterization report of the repair pass (clean cells `Resumed`).
    ///
    /// # Errors
    ///
    /// Checkpoint/cache I/O failures.
    pub fn repair_library(
        &self,
        temp: f64,
        current: &Library,
        offenders: &[String],
    ) -> Result<(Library, CharReport)> {
        let char_cfg = self.base_char_cfg(temp);
        let _fault_guard = self.cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.effective_cards();
        let name = format!("cryo5_tt_0p70v_{}k", temp as u32);
        self.repair_corner(&name, &char_cfg, &nfet, &pfet, current, offenders)
    }

    /// [`CryoFlow::repair_library`] for an arbitrary farm corner.
    ///
    /// # Errors
    ///
    /// Checkpoint/cache I/O failures.
    pub fn corner_repair_library(
        &self,
        corner: &Corner,
        current: &Library,
        offenders: &[String],
    ) -> Result<(Library, CharReport)> {
        let char_cfg = self.corner_char_cfg(corner);
        let _fault_guard = self.cfg.fault_plan.clone().map(fault::install_guard);
        let (nfet, pfet) = self.corner_cards(corner);
        self.repair_corner(
            &corner.lib_name(),
            &char_cfg,
            &nfet,
            &pfet,
            current,
            offenders,
        )
    }

    fn repair_corner(
        &self,
        name: &str,
        char_cfg: &CharConfig,
        nfet: &ModelCard,
        pfet: &ModelCard,
        current: &Library,
        offenders: &[String],
    ) -> Result<(Library, CharReport)> {
        let cells = topology::standard_cell_set();
        let tag = cache::cell_set_tag(&cells);
        let key = cache::cache_key(nfet, pfet, char_cfg, &tag)?;
        // A repaired corner must not be served from the (possibly dirty)
        // library-level cache, so the repair works on checkpoints alone.
        let _ = std::fs::remove_file(cache::cache_path(&self.cfg.cache_dir, name, &key));
        // Seeding clean cells into checkpoints is an optimization, not a
        // correctness requirement: on a full disk the repair falls back to
        // re-characterizing everything rather than failing.
        let checkpoint = match CheckpointStore::open(&self.cfg.cache_dir, name, &key) {
            Ok(store) => Some(store),
            Err(e) if e.is_no_space() => {
                eprintln!(
                    "warning: {name} repair checkpoint store unavailable ({e}); \
                     re-characterizing without seeded checkpoints"
                );
                None
            }
            Err(e) => return Err(e.into()),
        };
        if let Some(cp) = &checkpoint {
            for cell in current.cells() {
                if !offenders.contains(&cell.name) {
                    match cp.store(cell) {
                        Ok(()) => {}
                        Err(e) if e.is_no_space() => {
                            eprintln!("warning: {name} repair seed shed ({e})");
                            break;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            for off in offenders {
                cp.remove(off);
            }
        }
        let engine = Characterizer::new(nfet, pfet, char_cfg.clone()).with_generation(1);
        let (lib, report) = engine.characterize_library_robust(name, &cells, checkpoint.as_ref());
        Ok((lib, report))
    }

    // ------------------------------------------------------------------
    // SoC + signoff
    // ------------------------------------------------------------------

    /// Generate the SoC netlist (synthesized/placed at 300 K, per the
    /// paper; the same netlist is then analyzed at both corners).
    #[must_use]
    pub fn soc(&self) -> Design {
        build_soc(&self.cfg.soc)
    }

    /// Run STA on `design` at a corner. `lib300_mean_delay` anchors the
    /// macro-timing derate (pass the 300 K library's mean delay).
    ///
    /// # Errors
    ///
    /// STA failures (unmapped cells, loops).
    pub fn timing(
        &self,
        design: &Design,
        lib: &Library,
        lib300_mean_delay: f64,
    ) -> Result<TimingReport> {
        self.timing_with_policy(design, lib, lib300_mean_delay, MissingArcPolicy::Fail)
    }

    /// [`CryoFlow::timing`] with an explicit missing-arc policy — the
    /// supervised pipeline's degraded-mode entry point. `Fail` reproduces
    /// `timing` exactly; the other policies let a partially characterized
    /// library reach a complete (flagged) report.
    ///
    /// # Errors
    ///
    /// STA failures (unmapped cells, loops); with `Fail`, also missing arcs.
    pub fn timing_with_policy(
        &self,
        design: &Design,
        lib: &Library,
        lib300_mean_delay: f64,
        policy: MissingArcPolicy,
    ) -> Result<TimingReport> {
        let scale = if lib300_mean_delay > 0.0 {
            lib.stats().mean_delay / lib300_mean_delay
        } else {
            1.0
        };
        let sta_cfg = StaConfig {
            macro_delay_scale: scale,
            missing_arc_policy: policy,
            ..StaConfig::default()
        };
        Ok(analyze(design, lib, &sta_cfg)?)
    }

    // ------------------------------------------------------------------
    // Workloads
    // ------------------------------------------------------------------

    /// Assemble and time a workload on the pipeline model.
    ///
    /// # Errors
    ///
    /// Assembly or simulation faults.
    pub fn run_workload(&self, workload: Workload) -> Result<WorkloadRun> {
        let (src_one, src_many, items, cpop) = self.workload_sources(workload)?;
        let pipe_cfg = PipelineConfig {
            enable_cpop: cpop,
            ..PipelineConfig::default()
        };
        let run = |src: &str| -> Result<RunStats> {
            let program = assemble(src)?;
            let mut m = PipelineModel::new(pipe_cfg.clone());
            m.cpu.load_program(&program);
            Ok(m.run(500_000_000)?)
        };
        let stats_many = run(&src_many)?;
        let cycles_per_item = if let Some(src_one) = src_one {
            let stats_one = run(&src_one)?;
            // Marginal (steady-state) cost of the extra rounds.
            (stats_many.cycles - stats_one.cycles) as f64
                / ((WORKLOAD_ROUNDS - 1) as f64 * items as f64)
        } else {
            stats_many.cycles as f64 / items as f64
        };
        Ok(WorkloadRun {
            workload,
            stats: stats_many,
            cycles_per_item,
        })
    }

    /// Produce the single-round and multi-round sources plus metadata.
    fn workload_sources(
        &self,
        workload: Workload,
    ) -> Result<(Option<String>, String, usize, bool)> {
        match workload {
            Workload::Knn { n } => {
                let (centers, meas) = self.knn_data(n)?;
                Ok((
                    Some(knn_source_rounds(&centers, &meas, 1)),
                    knn_source_rounds(&centers, &meas, WORKLOAD_ROUNDS),
                    n,
                    false,
                ))
            }
            Workload::Hdc { n, cpop } => {
                let (ix, iy, centers, meas, qmin, qscale) = self.hdc_data(n)?;
                Ok((
                    Some(hdc_source_rounds(
                        &ix, &iy, &centers, &meas, qmin, qscale, cpop, 1,
                    )),
                    hdc_source_rounds(
                        &ix,
                        &iy,
                        &centers,
                        &meas,
                        qmin,
                        qscale,
                        cpop,
                        WORKLOAD_ROUNDS,
                    ),
                    n,
                    cpop,
                ))
            }
            Workload::Dhrystone => Ok((None, dhrystone_source(400), 400, false)),
        }
    }

    /// Calibrated kNN tables + a fresh measurement round for `n` qubits.
    #[allow(clippy::type_complexity)]
    fn knn_data(&self, n: usize) -> Result<(Vec<[f64; 4]>, Vec<(f64, f64)>)> {
        let device = QuantumDevice::new(n, self.cfg.seed);
        let cal = Calibration::train(&device, 128)?;
        let shots = device.measurement_round(1);
        let meas: Vec<(f64, f64)> = shots.iter().map(|s| (s.point.i, s.point.q)).collect();
        Ok((cal.knn_table(), meas))
    }

    /// HDC kernel tables for `n` qubits.
    #[allow(clippy::type_complexity)]
    fn hdc_data(
        &self,
        n: usize,
    ) -> Result<(
        Vec<[u64; 2]>,
        Vec<[u64; 2]>,
        Vec<[u64; 4]>,
        Vec<(f64, f64)>,
        f64,
        f64,
    )> {
        let device = QuantumDevice::new(n, self.cfg.seed);
        let cal = Calibration::train(&device, 128)?;
        let encoder = IqEncoder::new(HDC_LEVELS, -3.0, 3.0, self.cfg.seed);
        let qmin = encoder.qmin;
        let qscale = encoder.qscale;
        let classifier = HdcClassifier::new(&cal, encoder)?;
        let (ix, iy) = classifier.encoder().tables();
        let centers = classifier.center_table();
        let shots = device.measurement_round(1);
        let meas: Vec<(f64, f64)> = shots.iter().map(|s| (s.point.i, s.point.q)).collect();
        Ok((ix, iy, centers, meas, qmin, qscale))
    }

    // ------------------------------------------------------------------
    // Power
    // ------------------------------------------------------------------

    /// Map workload pipeline statistics onto per-region switching
    /// activities — the paper's "actual switching activity" step, at block
    /// granularity.
    #[must_use]
    pub fn activity_profile(&self, stats: &RunStats) -> ActivityProfile {
        let ipc = stats.per_cycle(stats.instructions);
        let mut p = ActivityProfile::with_default(0.02);
        p.set_region("ifu", 0.30 * ipc)
            .set_region("dec", 0.30 * ipc)
            .set_region("alu", 0.35 * ipc)
            .set_region("bypass", 0.30 * ipc)
            .set_region("pipe", 0.25 * ipc)
            .set_region("shifter", 0.08 * ipc)
            .set_region("mul", 0.40 * stats.per_cycle(stats.muldiv_ops))
            .set_region("fpu", 0.40 * stats.per_cycle(stats.fp_ops))
            .set_region("lsu", 0.35 * stats.per_cycle(stats.loads + stats.stores))
            .set_region("l1i", 0.25 * ipc)
            .set_region("l1d", 0.30 * stats.per_cycle(stats.loads + stats.stores))
            .set_region(
                "l2",
                0.25 * stats.per_cycle(stats.l1d_misses + stats.l1i_misses),
            )
            .set_region("csr", 0.02)
            .set_region("ctrl", 0.10 * ipc)
            .set_region("uncore", 0.02);
        p.set_macro_access("l1i_data", ipc.min(1.0));
        p.set_macro_access("l1i_tags", ipc.min(1.0));
        p.set_macro_access("l1d", stats.per_cycle(stats.loads + stats.stores));
        p.set_macro_access("int_regfile", (2.0 * ipc).min(2.0));
        p.set_macro_access("fp_regfile", stats.per_cycle(stats.fp_ops));
        p.set_macro_access("l2", stats.per_cycle(stats.l1d_misses + stats.l1i_misses));
        p.set_macro_access("tlb", ipc.min(1.0));
        p
    }

    /// Run power signoff for a workload profile at a corner.
    ///
    /// # Errors
    ///
    /// Power analysis failures.
    pub fn power(
        &self,
        design: &Design,
        lib: &Library,
        profile: &ActivityProfile,
        frequency: f64,
    ) -> Result<PowerReport> {
        let cfg = PowerConfig::at(&self.nfet, lib.temperature, frequency);
        Ok(analyze_power(design, lib, &cfg, profile, None)?)
    }

    /// Solve the global activity scale so the 300 K kNN dynamic power hits
    /// the paper's 63.5 mW anchor (DESIGN.md §5). Dynamic power is affine
    /// in the scale, so two evaluations suffice.
    ///
    /// # Errors
    ///
    /// Power analysis failures.
    pub fn calibrate_activity_scale(
        &self,
        design: &Design,
        lib300: &Library,
        base_profile: &ActivityProfile,
        frequency: f64,
    ) -> Result<f64> {
        let p1 = {
            let mut p = base_profile.clone();
            p.scale(1.0);
            self.power(design, lib300, &p, frequency)?.dynamic_w
        };
        let p2 = {
            let mut p = base_profile.clone();
            p.scale(2.0);
            self.power(design, lib300, &p, frequency)?.dynamic_w
        };
        let slope = (p2 - p1).max(1e-12);
        let offset = p1 - slope; // value at scale 0 plus one slope unit
        let scale = (KNN_DYNAMIC_300K - offset) / slope;
        Ok(scale.max(0.01))
    }
}

/// Rounds used for steady-state workload timing.
pub const WORKLOAD_ROUNDS: u64 = 4;

/// Print audit findings as warnings (Warn policy, or repaired Gate runs).
fn warn_findings(name: &str, audit: &AuditReport) {
    for f in &audit.findings {
        eprintln!("warning: audit {name}: {f}");
    }
    for cell in &audit.repaired {
        eprintln!("warning: audit {name}: {cell} repaired by targeted re-characterization");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> CryoFlow {
        CryoFlow::new(FlowConfig::fast(
            std::env::temp_dir().join("cryo_flow_test"),
        ))
    }

    #[test]
    fn knn_workload_cycles_are_paper_scale() {
        let f = flow();
        let run = f.run_workload(Workload::Knn { n: 20 }).unwrap();
        assert!(
            (30.0..60.0).contains(&run.cycles_per_item),
            "paper Table 2: 41.5 cycles at 20 qubits; got {:.1}",
            run.cycles_per_item
        );
    }

    #[test]
    fn hdc_is_slower_and_cpop_helps() {
        let f = flow();
        let knn = f.run_workload(Workload::Knn { n: 20 }).unwrap();
        let hdc = f
            .run_workload(Workload::Hdc { n: 20, cpop: false })
            .unwrap();
        let hdc_hw = f.run_workload(Workload::Hdc { n: 20, cpop: true }).unwrap();
        assert!(hdc.cycles_per_item > 2.5 * knn.cycles_per_item);
        assert!(hdc_hw.cycles_per_item < 0.7 * hdc.cycles_per_item);
    }

    #[test]
    fn more_qubits_cost_more_cycles() {
        let f = flow();
        let small = f.run_workload(Workload::Knn { n: 20 }).unwrap();
        let large = f.run_workload(Workload::Knn { n: 400 }).unwrap();
        assert!(
            large.cycles_per_item > small.cycles_per_item * 1.1,
            "cache misses must grow: {:.1} -> {:.1}",
            small.cycles_per_item,
            large.cycles_per_item
        );
    }

    #[test]
    fn activity_profile_reflects_workload() {
        let f = flow();
        let knn = f.run_workload(Workload::Knn { n: 20 }).unwrap();
        let dhry = f.run_workload(Workload::Dhrystone).unwrap();
        let p_knn = f.activity_profile(&knn.stats);
        let p_dhry = f.activity_profile(&dhry.stats);
        assert!(
            p_knn.alpha("fpu") > p_dhry.alpha("fpu"),
            "kNN exercises the FPU"
        );
        assert!(p_dhry.alpha("fpu") < 0.01, "Dhrystone has no FP");
    }
}
