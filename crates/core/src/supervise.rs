//! Supervised end-to-end pipeline runner.
//!
//! [`Supervisor`] drives the paper's full flow — calibrate → characterize
//! (300 K, 10 K) → STA per corner → workload activity → power → classify —
//! with the robustness contract of DESIGN.md §9:
//!
//! - **Stage checkpoints.** Every completed stage serializes its artifact
//!   into a [`CheckpointStore`] keyed by the pipeline configuration. A run
//!   killed at any stage boundary resumes at the first incomplete stage
//!   with zero repeated SPICE or STA work; the per-stage
//!   [`StageRecord::from_checkpoint`] flag and the folded simulator/arc
//!   counters prove it.
//! - **Deadline budgets.** Each stage runs on a watchdog-supervised worker
//!   thread with a per-stage budget, clamped by the remaining overall
//!   wall-clock budget. Overruns become structured
//!   [`CoreError::StageTimeout`] — never a hang. (The overrunning worker
//!   thread is detached and leaked; it holds no locks and its checkpoint
//!   is simply never written.)
//! - **Retry with backoff.** Transient stage failures are retried with
//!   doubling backoff; configuration, coverage, and timeout errors are
//!   terminal.
//! - **Cross-layer fault injection.** The flow's [`FaultPlan`] is
//!   re-installed on every worker thread and the stage context is labelled
//!   `stage:<name>`, so `CRYO_FAULTS` scopes can target a single stage and
//!   parallel/serial runs stay byte-identical.
//! - **Degraded-mode signoff.** STA stages run under the configured
//!   [`MissingArcPolicy`], so a partially characterized corner still
//!   produces a complete, explicitly flagged timing report.
//!
//! Checkpoints, budgets and retries have one implementation, a
//! crate-private step runner that the corner farm ([`crate::corners`])
//! shares.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cryo_cells::{cache, topology, CellError, CharReport, CheckpointStore, SurrogateSummary};
use cryo_liberty::{
    audit_cross_corner, audit_library, audit_lvf_cross_corner, AuditReport, Library,
};
use cryo_power::{ActivityProfile, PowerReport};
use cryo_spice::work::{self, Handback, Work};
use cryo_spice::{fault, FaultPlan};
use cryo_sta::{audit_timing, MissingArcPolicy, TimingReport};
use cryo_surrogate::fnv64;
use serde::{Deserialize, Serialize};

use crate::audit::{self, AuditPolicy};
use crate::flow::{CryoFlow, Workload, COOLING_BUDGET_10K, DECOHERENCE_TIME, FIG7_CLOCK};
use crate::mc::{McCornerOutcome, McCornerSummary, McPolicy, McSummary};
use crate::surrogate::SurrogatePolicy;
use crate::{CoreError, Result};

// ----------------------------------------------------------------------
// Stages
// ----------------------------------------------------------------------

/// The supervised pipeline's stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Environment validation plus model-card/SoC fingerprints.
    Calibrate,
    /// Characterize the 300 K library corner.
    Charlib300,
    /// Characterize the 10 K library corner.
    Charlib10,
    /// STA at the 300 K corner.
    Sta300,
    /// STA at the 10 K corner.
    Sta10,
    /// Workload simulation → switching-activity profile.
    Activity,
    /// Activity-scale calibration + power signoff at both corners.
    Power,
    /// Fold everything into the paper's feasibility verdict.
    Classify,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 8] = [
        Stage::Calibrate,
        Stage::Charlib300,
        Stage::Charlib10,
        Stage::Sta300,
        Stage::Sta10,
        Stage::Activity,
        Stage::Power,
        Stage::Classify,
    ];

    /// Stable lowercase name; used as the checkpoint blob name and in
    /// `stage:<name>` fault-injection contexts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Calibrate => "calibrate",
            Stage::Charlib300 => "charlib300",
            Stage::Charlib10 => "charlib10",
            Stage::Sta300 => "sta300",
            Stage::Sta10 => "sta10",
            Stage::Activity => "activity",
            Stage::Power => "power",
            Stage::Classify => "classify",
        }
    }
}

// ----------------------------------------------------------------------
// Stage artifacts (all round-trip through the checkpoint store)
// ----------------------------------------------------------------------

/// Calibrate-stage artifact: fingerprints of everything downstream stages
/// depend on, recorded so a resumed run can be audited against the inputs
/// that produced its checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrateArtifact {
    /// FNV-64 digest of the n-FinFET model card.
    pub nfet_digest: String,
    /// FNV-64 digest of the p-FinFET model card.
    pub pfet_digest: String,
    /// FNV-64 digest of the SoC generator configuration.
    pub soc_digest: String,
    /// Whether a fault-injection plan is armed for this run.
    pub faults_armed: bool,
    /// Effective characterization worker count (0 = auto-detect).
    pub jobs: usize,
}

/// Characterization-stage artifact: the library itself plus its per-cell
/// report, so a resumed run skips SPICE entirely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharArtifact {
    /// The characterized (possibly degraded) library corner.
    pub lib: Library,
    /// Per-cell characterization outcomes.
    pub report: CharReport,
    /// The corner's mean arc delay — the 300 K value anchors the 10 K
    /// macro-timing derate.
    pub mean_delay: f64,
}

/// Activity-stage artifact: the switching profile in its sorted,
/// checkpointable representation (see `ActivityProfile::regions_sorted`)
/// plus the workload's steady-state cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityArtifact {
    /// Fallback toggle rate for unmatched regions.
    pub default_alpha: f64,
    /// Per-region toggle rates, sorted by region name.
    pub regions: Vec<(String, f64)>,
    /// Per-macro access rates, sorted by macro name.
    pub macro_accesses: Vec<(String, f64)>,
    /// Steady-state cycles per classified qubit.
    pub cycles_per_item: f64,
}

/// One corner's power summary with a deterministic (sorted) region map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCorner {
    /// Corner name.
    pub corner: String,
    /// Dynamic power, watts.
    pub dynamic_w: f64,
    /// Standard-cell leakage, watts.
    pub logic_leakage_w: f64,
    /// SRAM macro leakage, watts.
    pub sram_leakage_w: f64,
    /// Total average power, watts.
    pub total_w: f64,
    /// Dynamic power per region, sorted by region name.
    pub per_region_dynamic: Vec<(String, f64)>,
}

impl PowerCorner {
    fn from_report(r: &PowerReport) -> Self {
        let mut per_region: Vec<(String, f64)> = r
            .per_region_dynamic
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        per_region.sort_by(|a, b| a.0.cmp(&b.0));
        PowerCorner {
            corner: r.corner.clone(),
            dynamic_w: r.dynamic_w,
            logic_leakage_w: r.logic_leakage_w,
            sram_leakage_w: r.sram_leakage_w,
            total_w: r.total(),
            per_region_dynamic: per_region,
        }
    }
}

/// Power-stage artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerArtifact {
    /// Calibrated global activity scale (DESIGN.md §5).
    pub activity_scale: f64,
    /// 300 K corner summary.
    pub p300: PowerCorner,
    /// 10 K corner summary.
    pub p10: PowerCorner,
}

/// Classify-stage artifact: the paper's feasibility verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifyArtifact {
    /// Maximum clock at 300 K, hertz.
    pub fmax_300_hz: f64,
    /// Maximum clock at 10 K, hertz.
    pub fmax_10_hz: f64,
    /// `fmax_10 / fmax_300` — slightly below 1: the cryogenic Vth shift
    /// lengthens the critical path ~4.6 % (paper Table 1).
    pub cryo_fmax_ratio: f64,
    /// Total SoC power at 10 K, watts.
    pub total_power_10k_w: f64,
    /// Whether the 10 K power fits the cryostat's cooling budget.
    pub fits_cooling_budget: bool,
    /// kNN classification latency for the supervised qubit count, seconds.
    pub knn_classify_s: f64,
    /// Whether classification finishes inside the decoherence window.
    pub within_decoherence: bool,
    /// Degraded (stand-in) arc count in the 300 K timing report.
    pub degraded_arcs_300: usize,
    /// Degraded (stand-in) arc count in the 10 K timing report.
    pub degraded_arcs_10: usize,
}

// ----------------------------------------------------------------------
// Supervisor configuration + report
// ----------------------------------------------------------------------

/// Knobs for the supervised pipeline.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-stage deadline. A stage that runs longer becomes
    /// [`CoreError::StageTimeout`].
    pub stage_budget: Duration,
    /// Overall wall-clock budget for the whole pipeline; the effective
    /// per-stage deadline is clamped by what remains of this.
    pub overall_budget: Duration,
    /// Attempts per stage (1 = no retry). Coverage, configuration, and
    /// timeout errors are never retried.
    pub max_attempts: u32,
    /// Initial retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Missing-arc policy for the STA stages. The default borrows from
    /// drive siblings with a 10 % pessimism margin so a degraded library
    /// still reaches a complete, flagged report.
    pub missing_arc_policy: MissingArcPolicy,
    /// Stop (successfully, `completed = false`) after this stage's
    /// checkpoint is written — the in-process kill point used by the
    /// resume tests and the kill-and-resume CI job.
    pub halt_after: Option<Stage>,
    /// Qubit count for the activity workload and the classification-latency
    /// verdict.
    pub qubits: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            stage_budget: Duration::from_secs(600),
            overall_budget: Duration::from_secs(3600),
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.10 },
            halt_after: None,
            qubits: 20,
        }
    }
}

/// Per-stage execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Which stage.
    pub stage: Stage,
    /// `true` when the stage's artifact was loaded from its checkpoint
    /// (zero recomputation).
    pub from_checkpoint: bool,
    /// Attempts taken (0 when resumed from checkpoint).
    pub attempts: u32,
    /// Wall-clock time spent, seconds (≈0 when resumed).
    pub wall_s: f64,
    /// DC operating-point solves the stage ran.
    pub dc_solves: u64,
    /// Transient analyses the stage ran.
    pub tran_solves: u64,
    /// STA arc evaluations the stage ran.
    pub arc_evals: u64,
}

/// Outcome of a supervised pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Checkpoint-namespace key derived from every run-relevant input.
    pub pipeline_key: String,
    /// `false` when the run stopped at [`SupervisorConfig::halt_after`].
    pub completed: bool,
    /// One record per stage that ran (or resumed), in order.
    pub stages: Vec<StageRecord>,
    /// The final verdict; `None` unless the Classify stage ran.
    pub verdict: Option<ClassifyArtifact>,
    /// Accumulated audit outcome across every stage boundary: `Warn`-mode
    /// findings plus cells repaired by targeted re-characterization. Empty
    /// on a clean run (and omitted from serialization, so clean pipeline
    /// reports stay byte-identical to the pre-audit schema).
    #[serde(default, skip_serializing_if = "AuditReport::is_clean")]
    pub audit: AuditReport,
    /// Surrogate-prediction summary lifted from the cold corner's
    /// characterization report when the run predicted that corner; `None`
    /// (and omitted from serialization) under [`SurrogatePolicy::Off`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub surrogate: Option<SurrogateSummary>,
    /// Structured degradation warnings — today, stages whose checkpoint
    /// write was shed because the store hit `ENOSPC`. The run still
    /// completed and its artifacts are signed; only durability degraded.
    /// Empty on a healthy run (and omitted from serialization, so clean
    /// pipeline reports stay byte-identical to the pre-chaos schema).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<String>,
    /// Statistical-signoff summary when `CRYO_MC` armed a sampling
    /// policy; `None` (and omitted from serialization) under
    /// [`McPolicy::Off`], so nominal reports stay byte-identical.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mc: Option<McSummary>,
}

/// Validated environment configuration (satellite of the supervision
/// contract: malformed knobs fail structurally at flow start, not
/// mid-pipeline).
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Parsed `CRYO_FAULTS` plan, if set.
    pub fault_plan: Option<FaultPlan>,
    /// Parsed `CRYO_JOBS` override, if set.
    pub jobs: Option<usize>,
    /// Parsed `CRYO_AUDIT` policy (default when unset).
    pub audit_policy: AuditPolicy,
    /// Parsed `CRYO_SURROGATE` policy (default when unset).
    pub surrogate_policy: SurrogatePolicy,
    /// Parsed `CRYO_MC` policy (default when unset).
    pub mc_policy: McPolicy,
    /// Parsed `CRYO_CORNERS` spec, if set.
    pub corner_spec: Option<crate::corners::CornerSpec>,
    /// Parsed `CRYO_SERVE_SOCKET` path, if set (daemon-only knob).
    pub serve_socket: Option<String>,
    /// Parsed `CRYO_SERVE_QUEUE` admission-queue depth, if set.
    pub serve_queue: Option<usize>,
    /// Parsed `CRYO_SERVE_PIPELINES` concurrent-pipeline cap, if set.
    pub serve_pipelines: Option<usize>,
    /// Parsed `CRYO_REAP_AGE` stale-tmp reaper age in seconds, if set
    /// (0 = reap every orphan immediately).
    pub reap_age: Option<u64>,
}

/// `CRYO_SERVE_SOCKET`: a non-empty Unix-socket path. AF_UNIX caps the
/// path length well below PATH_MAX; reject early rather than at bind(2).
fn serve_socket_checked() -> std::result::Result<Option<String>, String> {
    let Ok(v) = std::env::var("CRYO_SERVE_SOCKET") else {
        return Ok(None);
    };
    if v.is_empty() {
        return Err("socket path is empty".into());
    }
    if v.contains('\0') {
        return Err("socket path contains a NUL byte".into());
    }
    if v.len() > 100 {
        return Err(format!(
            "socket path is {} bytes; AF_UNIX paths must be <= 100",
            v.len()
        ));
    }
    Ok(Some(v))
}

/// `CRYO_SERVE_QUEUE` / `CRYO_SERVE_PIPELINES`: a positive integer with a
/// sanity cap (a six-digit queue depth is a typo, not a deployment).
fn serve_count_checked(var: &str, max: usize) -> std::result::Result<Option<usize>, String> {
    let Ok(v) = std::env::var(var) else {
        return Ok(None);
    };
    let n: usize = v
        .parse()
        .map_err(|_| "not an unsigned integer".to_string())?;
    if n == 0 {
        return Err("must be >= 1".into());
    }
    if n > max {
        return Err(format!("must be <= {max}"));
    }
    Ok(Some(n))
}

/// `CRYO_REAP_AGE`: how old (seconds) a stale atomic-write tmp file must
/// be before store-open reaping deletes it. Zero is legal (reap every
/// orphan immediately — what the chaos drills use); anything beyond a year
/// is a typo, not a retention policy.
fn reap_age_checked() -> std::result::Result<Option<u64>, String> {
    let Ok(v) = std::env::var("CRYO_REAP_AGE") else {
        return Ok(None);
    };
    let n: u64 = v
        .parse()
        .map_err(|_| "not an unsigned integer (seconds)".to_string())?;
    if n > cache::REAP_AGE_MAX_SECS {
        return Err(format!(
            "must be <= {} (one year)",
            cache::REAP_AGE_MAX_SECS
        ));
    }
    Ok(Some(n))
}

/// Run one variable's checked parser, turning its failure into a
/// [`CoreError::Config`] that names the variable and the rejected value.
fn checked<T>(var: &str, parse: impl FnOnce() -> std::result::Result<T, String>) -> Result<T> {
    parse().map_err(|reason| CoreError::Config {
        var: var.into(),
        value: std::env::var(var).unwrap_or_default(),
        reason,
    })
}

/// Strictly validate `CRYO_FAULTS`, `CRYO_JOBS`, `CRYO_AUDIT`,
/// `CRYO_SURROGATE`, `CRYO_MC`, `CRYO_CORNERS`, `CRYO_REAP_AGE`, and the
/// `CRYO_SERVE_*` daemon knobs (socket path, queue depth, concurrent
/// pipelines).
///
/// # Errors
///
/// [`CoreError::Config`] naming the variable, the rejected value, and the
/// parse failure.
pub fn validate_env() -> Result<EnvConfig> {
    Ok(EnvConfig {
        fault_plan: checked("CRYO_FAULTS", FaultPlan::from_env_checked)?,
        jobs: checked("CRYO_JOBS", cryo_cells::sched::env_jobs_checked)?,
        audit_policy: checked("CRYO_AUDIT", AuditPolicy::from_env_checked)?,
        surrogate_policy: checked("CRYO_SURROGATE", SurrogatePolicy::from_env_checked)?,
        mc_policy: checked("CRYO_MC", McPolicy::from_env_checked)?,
        corner_spec: checked("CRYO_CORNERS", crate::corners::CornerSpec::from_env_checked)?,
        serve_socket: checked("CRYO_SERVE_SOCKET", serve_socket_checked)?,
        serve_queue: checked("CRYO_SERVE_QUEUE", || {
            serve_count_checked("CRYO_SERVE_QUEUE", 4096)
        })?,
        serve_pipelines: checked("CRYO_SERVE_PIPELINES", || {
            serve_count_checked("CRYO_SERVE_PIPELINES", 64)
        })?,
        reap_age: checked("CRYO_REAP_AGE", reap_age_checked)?,
    })
}

// ----------------------------------------------------------------------
// Run hooks (service integration)
// ----------------------------------------------------------------------

/// Cooperative cancellation token shared between a request owner (the
/// serve daemon) and a running pipeline. Cancellation is observed at stage
/// boundaries and between watchdog poll slices — never mid-solve — so
/// every checkpoint committed before the cancellation point stays on disk
/// and the next run of the same configuration resumes from it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Progress events emitted at supervised stage boundaries, so a streaming
/// consumer (the serve daemon's clients) observes stage transitions, audit
/// settlements, and surrogate fallbacks live instead of waiting for the
/// final report.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineEvent {
    /// A stage attempt is about to execute on a worker thread.
    StageStarted {
        /// Which stage.
        stage: Stage,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A stage produced (or resumed) its artifact.
    StageFinished {
        /// Which stage.
        stage: Stage,
        /// `true` when the artifact came from a checkpoint.
        from_checkpoint: bool,
        /// Attempts taken (0 when resumed).
        attempts: u32,
        /// Wall-clock seconds spent (≈0 when resumed).
        wall_s: f64,
    },
    /// A stage-boundary audit found or repaired something.
    AuditSettled {
        /// Stage whose boundary was audited.
        stage: Stage,
        /// Open findings at this boundary.
        findings: usize,
        /// Cells repaired by targeted re-characterization.
        repaired: usize,
    },
    /// The cold corner was served by the learned surrogate.
    SurrogateApplied {
        /// Cells whose tables came from the model.
        predicted: usize,
        /// Cells that fell back to per-cell SPICE.
        fallbacks: usize,
    },
}

/// Where [`PipelineEvent`]s go. The callback runs on the supervisor
/// thread between stages — keep it fast and never let it panic.
#[derive(Clone)]
pub struct EventSink(Arc<dyn Fn(&PipelineEvent) + Send + Sync>);

impl EventSink {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&PipelineEvent) + Send + Sync + 'static) -> Self {
        EventSink(Arc::new(f))
    }

    /// Deliver one event.
    pub fn emit(&self, e: &PipelineEvent) {
        (self.0)(e);
    }
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EventSink(..)")
    }
}

/// Request-scoped hooks a service front-end attaches to a supervised run.
/// All fields default to `None`, which reproduces the plain batch
/// behavior byte for byte.
#[derive(Debug, Clone, Default)]
pub struct RunHooks {
    /// Cooperative cancellation (checked at stage boundaries and between
    /// watchdog poll slices).
    pub cancel: Option<CancelToken>,
    /// Stage-boundary progress events.
    pub events: Option<EventSink>,
    /// Request-scoped fault-context prefix: stage contexts become
    /// `<context>/stage:<name>`, so `CRYO_FAULTS` scopes can target one
    /// request (`serve:<req>`) without touching its coalesced twins.
    pub context: Option<String>,
}

// ----------------------------------------------------------------------
// Supervisor
// ----------------------------------------------------------------------

/// The supervised pipeline runner. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct Supervisor {
    flow: CryoFlow,
    cfg: SupervisorConfig,
    hooks: RunHooks,
}

impl Supervisor {
    /// Wrap a flow in a supervisor.
    #[must_use]
    pub fn new(flow: CryoFlow, cfg: SupervisorConfig) -> Self {
        Supervisor {
            flow,
            cfg,
            hooks: RunHooks::default(),
        }
    }

    /// Attach request-scoped hooks (cancellation, events, fault context).
    #[must_use]
    pub fn with_hooks(mut self, hooks: RunHooks) -> Self {
        self.hooks = hooks;
        self
    }

    fn emit(&self, e: PipelineEvent) {
        if let Some(sink) = &self.hooks.events {
            sink.emit(&e);
        }
    }

    /// The underlying flow.
    #[must_use]
    pub fn flow(&self) -> &CryoFlow {
        &self.flow
    }

    /// The supervisor configuration.
    #[must_use]
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// The checkpoint-namespace key: an FNV-64 digest over both corners'
    /// cache keys, the SoC configuration, the seed, the coverage floor,
    /// and the missing-arc policy. Deliberately independent of `jobs` —
    /// a run interrupted at `jobs = 1` resumes under `jobs = 8` (the
    /// libraries are byte-identical either way).
    ///
    /// # Errors
    ///
    /// Cache-key construction failures.
    pub fn pipeline_key(&self) -> Result<String> {
        let fcfg = self.flow.config();
        let cells = topology::standard_cell_set();
        let tag = cache::cell_set_tag(&cells);
        let mut c300 = fcfg.char_300k.clone();
        let mut c10 = fcfg.char_10k.clone();
        c300.jobs = 1;
        c10.jobs = 1;
        let k300 = cache::cache_key(&self.flow.nfet, &self.flow.pfet, &c300, &tag)?;
        let k10 = cache::cache_key(&self.flow.nfet, &self.flow.pfet, &c10, &tag)?;
        Ok(fnv64(&format!(
            "{k300}|{k10}|{:?}|{}|{}|{:?}",
            fcfg.soc, fcfg.seed, fcfg.coverage_floor, self.cfg.missing_arc_policy
        )))
    }

    /// Drop every pipeline-level checkpoint for this configuration.
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
        let key = self.pipeline_key()?;
        Ok(CheckpointStore::open(
            &self.flow.config().cache_dir,
            "pipeline",
            &key,
        )?)
    }

    /// Run the pipeline end to end (resuming from checkpoints), honoring
    /// budgets, retries, fault injection, and the degraded-mode policy.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] on malformed environment knobs,
    /// [`CoreError::StageTimeout`] on budget overruns, and any stage error
    /// that survives the retry policy.
    #[allow(clippy::too_many_lines)] // one linear stage sequence
    pub fn run(&self) -> Result<PipelineReport> {
        let env = validate_env()?;
        let fcfg = self.flow.config();
        // Arm the plan on the supervisor thread; each stage worker
        // re-installs a clone so injection follows the work.
        let _fault_guard = fcfg.fault_plan.clone().map(fault::install_guard);
        let pipeline_key = self.pipeline_key()?;
        let store = self.open_store()?;
        let started = Instant::now();
        let mut records: Vec<StageRecord> = Vec::new();
        let mut warnings: Vec<String> = Vec::new();
        let mut pipeline_audit = AuditReport::default();
        let audit_policy = fcfg.audit_policy;

        let halted = |stage: Stage| self.cfg.halt_after == Some(stage);
        let partial = |records: Vec<StageRecord>,
                       audit: AuditReport,
                       surrogate: Option<SurrogateSummary>,
                       warnings: Vec<String>,
                       mc: Option<McSummary>| PipelineReport {
            pipeline_key: pipeline_key.clone(),
            completed: false,
            stages: records,
            verdict: None,
            audit,
            surrogate,
            warnings,
            mc,
        };
        // The statistical-signoff summary is assembled from whatever MC
        // artifacts exist when the run (or a halt) ends.
        let mc_summary = |mc300: Option<&McCornerOutcome>,
                          mc10: Option<&McCornerOutcome>,
                          sta300: Option<&TimingReport>,
                          sta10: Option<&TimingReport>|
         -> Option<McSummary> {
            let McPolicy::Sample { dies, k_sigma } = fcfg.mc_policy else {
                return None;
            };
            let corner = |label: &str, o: &McCornerOutcome, sta: Option<&TimingReport>| {
                let stat = sta.and_then(|r| r.statistical.as_ref());
                McCornerSummary {
                    corner: label.to_string(),
                    cells: o.report.cells.len(),
                    restored: o.report.restored.len(),
                    simulated: o.report.simulated.len(),
                    failed: o.report.failed.len(),
                    mean_rel_sigma: o.mean_rel_sigma,
                    transfer_ratio: o
                        .transfer
                        .as_ref()
                        .map(cryo_lvf::transfer::SigmaTransfer::ratio),
                    fallbacks: o.fallbacks.len(),
                    critical_path_sigma: stat.map_or(0.0, |s| s.critical_path_sigma),
                    worst_slack_k_sigma: stat.map_or(0.0, |s| s.worst_slack_k_sigma),
                }
            };
            let mut corners = Vec::new();
            if let Some(o) = mc300 {
                corners.push(corner("300k", o, sta300));
            }
            if let Some(o) = mc10 {
                corners.push(corner("10k", o, sta10));
            }
            Some(McSummary {
                dies,
                k_sigma,
                corners,
            })
        };

        // Calibrate ----------------------------------------------------
        let flow = self.flow.clone();
        let jobs = env.jobs.unwrap_or(fcfg.jobs);
        let faults_armed = fcfg.fault_plan.is_some();
        let _cal: CalibrateArtifact = self.stage(
            Stage::Calibrate,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                Ok(CalibrateArtifact {
                    nfet_digest: fnv64(&format!("{:?}", flow.nfet)),
                    pfet_digest: fnv64(&format!("{:?}", flow.pfet)),
                    soc_digest: fnv64(&format!("{:?}", flow.config().soc)),
                    faults_armed,
                    jobs,
                })
            },
        )?;
        if audit_policy.is_on() {
            // The device audit runs on the cards every downstream stage
            // will actually consume — a `corrupt=vth` poison is caught
            // here, before a single SPICE run spends time on it. There is
            // no repair path for a bad card: under Gate this is terminal.
            let (nfet, pfet) = self.flow.effective_cards();
            let cards = audit::audit_model_cards(Stage::Calibrate.name(), &nfet, &pfet);
            self.settle(Stage::Calibrate, cards, audit_policy, &mut pipeline_audit)?;
        }
        if halted(Stage::Calibrate) {
            return Ok(partial(records, pipeline_audit, None, warnings, None));
        }

        // Characterization ---------------------------------------------
        let flow = self.flow.clone();
        let char300: CharArtifact = self.stage(
            Stage::Charlib300,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                let (lib, report) = flow.library_with_report(300.0)?;
                let mean_delay = lib.stats().mean_delay;
                Ok(CharArtifact {
                    lib,
                    report,
                    mean_delay,
                })
            },
        )?;
        let char300 = if audit_policy.is_on() {
            self.audit_charlib(
                Stage::Charlib300,
                char300,
                None,
                &store,
                &mut pipeline_audit,
                &mut warnings,
            )?
        } else {
            char300
        };
        // MC shadow of the warm corner: golden-set Monte-Carlo, sigma
        // broadcast over the full nominal library. Its own stage blob and
        // stores, so the nominal artifact above is untouched.
        let mc300: Option<McCornerOutcome> = match fcfg.mc_policy {
            McPolicy::Sample { dies, .. } => {
                let flow = self.flow.clone();
                let nominal = char300.lib.clone();
                let out: McCornerOutcome = self.stage_blob(
                    Stage::Charlib300,
                    &fcfg.mc_policy.char_blob("charlib300_mc"),
                    started,
                    &store,
                    &mut records,
                    &mut warnings,
                    move || flow.mc_anchor_library(300.0, &nominal, dies),
                )?;
                let audit_cfg = audit::lib_audit_config(&fcfg.char_300k);
                let found = audit_library("charlib300_mc", &out.lib, &audit_cfg);
                self.settle(Stage::Charlib300, found, audit_policy, &mut pipeline_audit)?;
                Some(out)
            }
            McPolicy::Off => None,
        };
        if halted(Stage::Charlib300) {
            return Ok(partial(
                records,
                pipeline_audit,
                None,
                warnings,
                mc_summary(mc300.as_ref(), None, None, None),
            ));
        }

        let flow = self.flow.clone();
        let char10: CharArtifact = match fcfg.surrogate_policy {
            SurrogatePolicy::PredictWithFallback { max_rel_err } => {
                // Predicted corner: distinct checkpoint blob so it can
                // never be resumed as (or clobber) a SPICE artifact.
                let warm = char300.lib.clone();
                self.stage_blob(
                    Stage::Charlib10,
                    "charlib10_sur",
                    started,
                    &store,
                    &mut records,
                    &mut warnings,
                    move || {
                        let (lib, report) =
                            flow.surrogate_library_with_report(10.0, &warm, max_rel_err)?;
                        let mean_delay = lib.stats().mean_delay;
                        Ok(CharArtifact {
                            lib,
                            report,
                            mean_delay,
                        })
                    },
                )?
            }
            SurrogatePolicy::Off => self.stage(
                Stage::Charlib10,
                started,
                &store,
                &mut records,
                &mut warnings,
                move || {
                    let (lib, report) = flow.library_with_report(10.0)?;
                    let mean_delay = lib.stats().mean_delay;
                    Ok(CharArtifact {
                        lib,
                        report,
                        mean_delay,
                    })
                },
            )?,
        };
        let char10 = if audit_policy.is_on() || char10.report.surrogate.is_some() {
            // The cold corner additionally audits against the warm one:
            // a uniform delay scaling passes every per-library invariant
            // but lands outside the physical cross-corner band. A
            // predicted corner is re-audited even with `CRYO_AUDIT` off —
            // predictions are untrusted by construction.
            self.audit_charlib(
                Stage::Charlib10,
                char10,
                Some(&char300.lib),
                &store,
                &mut pipeline_audit,
                &mut warnings,
            )?
        } else {
            char10
        };
        if let Some(s) = &char10.report.surrogate {
            self.emit(PipelineEvent::SurrogateApplied {
                predicted: s.predicted,
                fallbacks: s.fallbacks.len(),
            });
        }
        // MC shadow of the cold corner: probe-subset Monte-Carlo feeding
        // the sigma-transfer head, per-cell SPICE-MC fallback for cells
        // the head cannot cover. The cold sigma is partly predicted, so
        // it is audited whatever `CRYO_AUDIT` says — including the
        // cross-temperature ordering invariant against the warm corner.
        let mc10: Option<McCornerOutcome> = match (&mc300, fcfg.mc_policy) {
            (Some(anchor), McPolicy::Sample { dies, .. }) => {
                let flow = self.flow.clone();
                let nominal = char10.lib.clone();
                let anchor_out = anchor.clone();
                let out: McCornerOutcome = self.stage_blob(
                    Stage::Charlib10,
                    &fcfg.mc_policy.char_blob("charlib10_mc"),
                    started,
                    &store,
                    &mut records,
                    &mut warnings,
                    move || flow.mc_transfer_library(10.0, &nominal, &anchor_out, dies),
                )?;
                let audit_cfg = audit::lib_audit_config(&fcfg.char_10k);
                let mut found = audit_library("charlib10_mc", &out.lib, &audit_cfg);
                found.merge(audit_lvf_cross_corner(
                    "charlib10_mc",
                    &anchor.lib,
                    &out.lib,
                ));
                self.settle(Stage::Charlib10, found, audit_policy, &mut pipeline_audit)?;
                Some(out)
            }
            _ => None,
        };
        if halted(Stage::Charlib10) {
            return Ok(partial(
                records,
                pipeline_audit,
                char10.report.surrogate.clone(),
                warnings,
                mc_summary(mc300.as_ref(), mc10.as_ref(), None, None),
            ));
        }

        // STA per corner ------------------------------------------------
        let flow = self.flow.clone();
        let lib = char300.lib.clone();
        let mean300 = char300.mean_delay;
        let policy = self.cfg.missing_arc_policy;
        let mut sta300: TimingReport = self.stage(
            Stage::Sta300,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                let design = flow.soc();
                flow.timing_with_policy(&design, &lib, mean300, policy)
            },
        )?;
        if audit_policy.is_on() {
            let found = audit_timing(Stage::Sta300.name(), &sta300);
            sta300.audit = found.clone();
            self.settle(Stage::Sta300, found, audit_policy, &mut pipeline_audit)?;
        }
        let sta300_mc: Option<TimingReport> = match (&mc300, fcfg.mc_policy) {
            (Some(mc), McPolicy::Sample { k_sigma, .. }) => {
                let flow = self.flow.clone();
                let lib = mc.lib.clone();
                Some(self.stage_blob(
                    Stage::Sta300,
                    &fcfg.mc_policy.sta_blob("sta300_mc"),
                    started,
                    &store,
                    &mut records,
                    &mut warnings,
                    move || {
                        let design = flow.soc();
                        flow.timing_statistical(&design, &lib, mean300, policy, k_sigma)
                    },
                )?)
            }
            _ => None,
        };
        if halted(Stage::Sta300) {
            return Ok(partial(
                records,
                pipeline_audit,
                char10.report.surrogate.clone(),
                warnings,
                mc_summary(mc300.as_ref(), mc10.as_ref(), sta300_mc.as_ref(), None),
            ));
        }

        let flow = self.flow.clone();
        let lib = char10.lib.clone();
        let mut sta10: TimingReport = self.stage(
            Stage::Sta10,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                let design = flow.soc();
                flow.timing_with_policy(&design, &lib, mean300, policy)
            },
        )?;
        if audit_policy.is_on() {
            let found = audit_timing(Stage::Sta10.name(), &sta10);
            sta10.audit = found.clone();
            self.settle(Stage::Sta10, found, audit_policy, &mut pipeline_audit)?;
        }
        let sta10_mc: Option<TimingReport> = match (&mc10, fcfg.mc_policy) {
            (Some(mc), McPolicy::Sample { k_sigma, .. }) => {
                let flow = self.flow.clone();
                let lib = mc.lib.clone();
                Some(self.stage_blob(
                    Stage::Sta10,
                    &fcfg.mc_policy.sta_blob("sta10_mc"),
                    started,
                    &store,
                    &mut records,
                    &mut warnings,
                    move || {
                        let design = flow.soc();
                        flow.timing_statistical(&design, &lib, mean300, policy, k_sigma)
                    },
                )?)
            }
            _ => None,
        };
        let mc = mc_summary(
            mc300.as_ref(),
            mc10.as_ref(),
            sta300_mc.as_ref(),
            sta10_mc.as_ref(),
        );
        if halted(Stage::Sta10) {
            return Ok(partial(
                records,
                pipeline_audit,
                char10.report.surrogate.clone(),
                warnings,
                mc,
            ));
        }

        // Activity ------------------------------------------------------
        let flow = self.flow.clone();
        let qubits = self.cfg.qubits;
        let act: ActivityArtifact = self.stage(
            Stage::Activity,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                let run = flow.run_workload(Workload::Knn { n: qubits })?;
                let profile = flow.activity_profile(&run.stats);
                Ok(ActivityArtifact {
                    default_alpha: profile.default_alpha,
                    regions: profile.regions_sorted(),
                    macro_accesses: profile.macro_accesses_sorted(),
                    cycles_per_item: run.cycles_per_item,
                })
            },
        )?;
        if audit_policy.is_on() {
            let found = audit::audit_activity(Stage::Activity.name(), &act);
            self.settle(Stage::Activity, found, audit_policy, &mut pipeline_audit)?;
        }
        if halted(Stage::Activity) {
            return Ok(partial(
                records,
                pipeline_audit,
                char10.report.surrogate.clone(),
                warnings,
                mc,
            ));
        }

        // Power ---------------------------------------------------------
        let flow = self.flow.clone();
        let lib300 = char300.lib.clone();
        let lib10 = char10.lib.clone();
        let act_for_power = act.clone();
        let pow: PowerArtifact = self.stage(
            Stage::Power,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                let design = flow.soc();
                let mut profile = rebuild_profile(&act_for_power);
                let scale =
                    flow.calibrate_activity_scale(&design, &lib300, &profile, FIG7_CLOCK)?;
                profile.scale(scale);
                let p300 = flow.power(&design, &lib300, &profile, FIG7_CLOCK)?;
                let p10 = flow.power(&design, &lib10, &profile, FIG7_CLOCK)?;
                Ok(PowerArtifact {
                    activity_scale: scale,
                    p300: PowerCorner::from_report(&p300),
                    p10: PowerCorner::from_report(&p10),
                })
            },
        )?;
        if audit_policy.is_on() {
            let mut found = audit::audit_power_corner(Stage::Power.name(), &pow.p300);
            found.merge(audit::audit_power_corner(Stage::Power.name(), &pow.p10));
            self.settle(Stage::Power, found, audit_policy, &mut pipeline_audit)?;
        }
        if halted(Stage::Power) {
            return Ok(partial(
                records,
                pipeline_audit,
                char10.report.surrogate.clone(),
                warnings,
                mc,
            ));
        }

        // Classify ------------------------------------------------------
        let qubits = self.cfg.qubits;
        let cycles_per_item = act.cycles_per_item;
        let total_10k = pow.p10.total_w;
        let fmax_300 = sta300.fmax();
        let fmax_10 = sta10.fmax();
        let degraded_300 = sta300.degraded_arcs.len();
        let degraded_10 = sta10.degraded_arcs.len();
        let verdict: ClassifyArtifact = self.stage(
            Stage::Classify,
            started,
            &store,
            &mut records,
            &mut warnings,
            move || {
                let knn_classify_s = qubits as f64 * cycles_per_item / FIG7_CLOCK;
                Ok(ClassifyArtifact {
                    fmax_300_hz: fmax_300,
                    fmax_10_hz: fmax_10,
                    cryo_fmax_ratio: fmax_10 / fmax_300,
                    total_power_10k_w: total_10k,
                    fits_cooling_budget: total_10k < COOLING_BUDGET_10K,
                    knn_classify_s,
                    within_decoherence: knn_classify_s < DECOHERENCE_TIME,
                    degraded_arcs_300: degraded_300,
                    degraded_arcs_10: degraded_10,
                })
            },
        )?;
        if audit_policy.is_on() {
            let found = audit::audit_classify(Stage::Classify.name(), &verdict);
            self.settle(Stage::Classify, found, audit_policy, &mut pipeline_audit)?;
        }

        Ok(PipelineReport {
            pipeline_key,
            completed: self.cfg.halt_after != Some(Stage::Classify),
            stages: records,
            verdict: Some(verdict),
            audit: pipeline_audit,
            surrogate: char10.report.surrogate.clone(),
            warnings,
            mc,
        })
    }

    /// Dispose of one stage's audit outcome: warn on every finding, fail
    /// the run under [`AuditPolicy::Gate`] when open findings remain, and
    /// fold the rest into the pipeline-level report.
    fn settle(
        &self,
        stage: Stage,
        found: AuditReport,
        policy: AuditPolicy,
        pipeline_audit: &mut AuditReport,
    ) -> Result<()> {
        if found.is_clean() {
            return Ok(());
        }
        self.emit(PipelineEvent::AuditSettled {
            stage,
            findings: found.findings.len(),
            repaired: found.repaired.len(),
        });
        for f in &found.findings {
            eprintln!("warning: audit {}: {f}", stage.name());
        }
        if policy == AuditPolicy::Gate && !found.findings.is_empty() {
            return Err(CoreError::AuditFailed {
                stage: stage.name().to_string(),
                report: found,
            });
        }
        pipeline_audit.merge(found);
        Ok(())
    }

    /// Audit a characterization artifact at its stage boundary — this
    /// covers checkpoint-resumed artifacts that bypassed the flow-level
    /// audit — including the cross-corner band against `warm` for the
    /// cold corner. Under [`AuditPolicy::Gate`], violations quarantine
    /// only the offending cells and trigger targeted re-characterization
    /// (clean cells resume from checkpoints, zero re-simulation); the
    /// repaired artifact overwrites the stage checkpoint so later resumes
    /// see the clean library. Violations that survive repair are terminal.
    ///
    /// A **predicted** artifact (one carrying a surrogate summary) always
    /// gates, whatever the audit policy: a dirty resumed prediction is
    /// repaired by re-running the surrogate stage — its internal
    /// audit-gated fallback re-characterizes exactly the distrusted cells
    /// — rather than by [`CryoFlow::repair_library`], which would seed
    /// predicted tables into the SPICE checkpoint namespace.
    fn audit_charlib(
        &self,
        stage: Stage,
        art: CharArtifact,
        warm: Option<&Library>,
        store: &CheckpointStore,
        pipeline_audit: &mut AuditReport,
        warnings: &mut Vec<String>,
    ) -> Result<CharArtifact> {
        let fcfg = self.flow.config();
        let (temp, char_cfg) = if stage == Stage::Charlib10 {
            (10.0, &fcfg.char_10k)
        } else {
            (300.0, &fcfg.char_300k)
        };
        let predicted = art.report.surrogate.is_some();
        let blob_name = if predicted {
            "charlib10_sur"
        } else {
            stage.name()
        };
        let audit_cfg = audit::lib_audit_config(char_cfg);
        let run_audit = |lib: &Library| {
            let mut a = audit_library(stage.name(), lib, &audit_cfg);
            if let Some(w) = warm {
                a.merge(audit_cross_corner(stage.name(), w, lib, &audit_cfg));
            }
            a
        };
        // Repairs already performed at the flow level ride along.
        pipeline_audit.merge(AuditReport {
            findings: Vec::new(),
            repaired: art.report.audit.repaired.clone(),
        });
        let found = run_audit(&art.lib);
        if found.is_clean() {
            return Ok(art);
        }
        self.emit(PipelineEvent::AuditSettled {
            stage,
            findings: found.findings.len(),
            repaired: 0,
        });
        for f in &found.findings {
            eprintln!("warning: audit {}: {f}", stage.name());
        }
        if fcfg.audit_policy != AuditPolicy::Gate && !predicted {
            pipeline_audit.merge(found);
            return Ok(art);
        }
        let offenders = found.offending_cells();
        let (lib, mut report) = if predicted {
            let SurrogatePolicy::PredictWithFallback { max_rel_err } = fcfg.surrogate_policy else {
                // A predicted artifact resumed with the surrogate now
                // off: there is no repair path that would not launder
                // predictions into SPICE artifacts. Terminal.
                return Err(CoreError::AuditFailed {
                    stage: stage.name().to_string(),
                    report: found,
                });
            };
            let Some(w) = warm else {
                return Err(CoreError::AuditFailed {
                    stage: stage.name().to_string(),
                    report: found,
                });
            };
            self.flow
                .surrogate_library_with_report(temp, w, max_rel_err)?
        } else {
            self.flow.repair_library(temp, &art.lib, &offenders)?
        };
        let recheck = run_audit(&lib);
        if !recheck.is_clean() {
            return Err(CoreError::AuditFailed {
                stage: stage.name().to_string(),
                report: recheck,
            });
        }
        report.audit = AuditReport {
            findings: Vec::new(),
            repaired: offenders,
        };
        self.emit(PipelineEvent::AuditSettled {
            stage,
            findings: 0,
            repaired: report.audit.repaired.len(),
        });
        pipeline_audit.merge(report.audit.clone());
        let mean_delay = lib.stats().mean_delay;
        let art = CharArtifact {
            lib,
            report,
            mean_delay,
        };
        warnings.extend(checkpoint(store, blob_name, &art, |e| {
            format!(
                "repaired-checkpoint write shed at stage {}: {e}",
                stage.name()
            )
        })?);
        Ok(art)
    }

    /// Run one stage under the supervision contract: resume from its
    /// checkpoint when present, otherwise execute `body` on a watchdog-
    /// supervised worker with retry-with-backoff, fold the worker's work
    /// ledger into the calling thread, and checkpoint the artifact.
    fn stage<T, F>(
        &self,
        stage: Stage,
        started: Instant,
        store: &CheckpointStore,
        records: &mut Vec<StageRecord>,
        warnings: &mut Vec<String>,
        body: F,
    ) -> Result<T>
    where
        T: Serialize + Deserialize + Send + 'static,
        F: Fn() -> Result<T> + Send + Sync + 'static,
    {
        self.stage_blob(stage, stage.name(), started, store, records, warnings, body)
    }

    /// [`Supervisor::stage`] with an explicit checkpoint-blob name, so
    /// variants of a stage (the surrogate-predicted cold corner vs the
    /// SPICE one) keep distinct resume artifacts and can never
    /// cross-contaminate each other.
    #[allow(clippy::too_many_arguments)] // one linear supervision context
    fn stage_blob<T, F>(
        &self,
        stage: Stage,
        blob_name: &str,
        started: Instant,
        store: &CheckpointStore,
        records: &mut Vec<StageRecord>,
        warnings: &mut Vec<String>,
        body: F,
    ) -> Result<T>
    where
        T: Serialize + Deserialize + Send + 'static,
        F: Fn() -> Result<T> + Send + Sync + 'static,
    {
        let name = stage.name();
        let step = Step {
            label: name,
            thread: format!("stage-{name}"),
            blob: blob_name,
            started,
            overall_budget: self.cfg.overall_budget,
            budget: self.cfg.stage_budget,
            max_attempts: self.cfg.max_attempts,
            backoff: self.cfg.backoff,
            cancel: self.hooks.cancel.as_ref(),
            context: Some(match &self.hooks.context {
                Some(ctx) => format!("{ctx}/stage:{name}"),
                None => format!("stage:{name}"),
            }),
        };
        let run = run_step(
            &step,
            store,
            |attempt| self.emit(PipelineEvent::StageStarted { stage, attempt }),
            |e| format!("checkpoint shed at stage {name}: {e}"),
            body,
        )?;
        let artifact = run.out?;
        warnings.extend(run.shed);
        self.emit(PipelineEvent::StageFinished {
            stage,
            from_checkpoint: run.from_checkpoint,
            attempts: run.attempts,
            wall_s: run.wall_s,
        });
        records.push(StageRecord {
            stage,
            from_checkpoint: run.from_checkpoint,
            attempts: run.attempts,
            wall_s: run.wall_s,
            dc_solves: run.work.dc,
            tran_solves: run.work.tran,
            arc_evals: run.work.arc_evals,
        });
        Ok(artifact)
    }
}

// ----------------------------------------------------------------------
// The step runner (shared by pipeline stages and farm corners)
// ----------------------------------------------------------------------

/// One supervised step: what [`run_step`] needs besides its store, hooks
/// and body. The supervisor's stages and the farm's corners differ only
/// in these values.
pub(crate) struct Step<'a> {
    /// Name in the step's `StageTimeout` and `Cancelled` errors.
    pub label: &'a str,
    /// Worker thread name.
    pub thread: String,
    /// Checkpoint blob the step resumes from and writes.
    pub blob: &'a str,
    /// When the whole run started.
    pub started: Instant,
    /// The whole run's budget; each attempt waits at most what remains.
    pub overall_budget: Duration,
    /// Per-attempt budget.
    pub budget: Duration,
    /// Attempts before a retryable error is final (1 = no retry).
    pub max_attempts: u32,
    /// Initial retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Checked before the step and between watchdog poll slices.
    pub cancel: Option<&'a CancelToken>,
    /// Fault-injection context each worker installs (`None` installs none).
    pub context: Option<String>,
}

/// What [`run_step`] returns, on success and on failure alike.
pub(crate) struct StepRun<T> {
    /// The artifact, or what ended the step: the body's last error,
    /// [`CoreError::StageTimeout`] or [`CoreError::Cancelled`].
    pub out: Result<T>,
    /// `true` when the artifact was loaded from its blob.
    pub from_checkpoint: bool,
    /// Attempts started (0 when resumed or cancelled up front).
    pub attempts: u32,
    /// Wall-clock seconds spent (0 when resumed).
    pub wall_s: f64,
    /// Work the attempts spent, already folded into the caller's ledger.
    pub work: Work,
    /// The warning when a full disk shed the artifact's checkpoint.
    pub shed: Option<String>,
}

/// Run one step under the supervision contract (DESIGN.md §9): resume
/// from its blob when the blob decodes; otherwise run `body` on a
/// [`spawn_counted`] worker under [`watch`], with `on_attempt(n)` called
/// before attempt `n`, retry [`retryable`] errors with doubling backoff,
/// and checkpoint the artifact (`shed` words the warning when a full disk
/// sheds the write).
///
/// # Errors
///
/// Only a checkpoint write that fails for a reason other than a full
/// disk; the step's own failure is in [`StepRun::out`].
pub(crate) fn run_step<T, F>(
    step: &Step<'_>,
    store: &CheckpointStore,
    on_attempt: impl Fn(u32),
    shed: impl FnOnce(&CellError) -> String,
    body: F,
) -> Result<StepRun<T>>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn() -> Result<T> + Send + Sync + 'static,
{
    let cancelled = || CoreError::Cancelled {
        stage: step.label.to_string(),
    };
    let not_run = |out, from_checkpoint| StepRun {
        out,
        from_checkpoint,
        attempts: 0,
        wall_s: 0.0,
        work: Work::default(),
        shed: None,
    };
    if step.cancel.is_some_and(CancelToken::is_cancelled) {
        return Ok(not_run(Err(cancelled()), false));
    }
    // A blob from an older schema does not decode: recompute and overwrite.
    if let Some(artifact) = store
        .load_blob(step.blob)
        .and_then(|blob| serde_json::from_str::<T>(&blob).ok())
    {
        return Ok(not_run(Ok(artifact), true));
    }

    let body = Arc::new(body);
    let step_start = Instant::now();
    let mut work = Work::default();
    let mut attempts = 0u32;
    let out = loop {
        attempts += 1;
        let remaining = step
            .overall_budget
            .checked_sub(step.started.elapsed())
            .unwrap_or(Duration::ZERO);
        let wait = step.budget.min(remaining);
        on_attempt(attempts);

        let body = Arc::clone(&body);
        let context = step.context.clone();
        let rx = spawn_counted(step.thread.clone(), move || {
            if let Some(label) = &context {
                fault::set_context(label);
            }
            body()
        });
        match watch(&rx, step.cancel, Some(wait)) {
            Watch::Done((out, used)) => {
                work += used;
                match out {
                    Ok(artifact) => break Ok(artifact),
                    Err(e) if attempts >= step.max_attempts || !retryable(&e) => break Err(e),
                    Err(_) => thread::sleep(step.backoff * (1u32 << (attempts - 1).min(16))),
                }
            }
            // The worker is leaked: it holds no locks, and its artifact is
            // never checkpointed, so the step reruns on the next invocation.
            Watch::Timeout => {
                break Err(CoreError::StageTimeout {
                    stage: step.label.to_string(),
                    budget_s: wait.as_secs_f64(),
                })
            }
            // Like a timeout, the worker is detached, not killed: if it
            // completes it still writes nothing (the artifact is only
            // checkpointed on this thread), while every checkpoint
            // committed before this point stays on disk for the next resume.
            Watch::Cancelled => break Err(cancelled()),
            Watch::Disconnected => panic!("{} worker panicked", step.thread),
        }
    };
    let shed = match &out {
        Ok(artifact) => checkpoint(store, step.blob, artifact, shed)?,
        Err(_) => None,
    };
    Ok(StepRun {
        out,
        from_checkpoint: false,
        attempts,
        wall_s: step_start.elapsed().as_secs_f64(),
        work,
        shed,
    })
}

/// Serialize `artifact` into the checkpoint blob `blob`. A full disk
/// (`ENOSPC`) degrades durability, never the run: the artifact is live in
/// memory and only its resume point is shed. The warning `shed` words for
/// the error is printed and returned.
///
/// # Errors
///
/// Any other store failure.
pub(crate) fn checkpoint<T: Serialize>(
    store: &CheckpointStore,
    blob: &str,
    artifact: &T,
    shed: impl FnOnce(&CellError) -> String,
) -> Result<Option<String>> {
    let payload = serde_json::to_string(artifact).expect("checkpoint artifacts serialize");
    match store.store_blob(blob, &payload) {
        Ok(()) => Ok(None),
        Err(e) if e.is_no_space() => {
            let w = shed(&e);
            eprintln!("warning: {w}");
            Ok(Some(w))
        }
        Err(e) => Err(e.into()),
    }
}

/// Run `body` on a fresh thread named `name`, in the caller's
/// [`work::capture`]d context (fault plan and warm-start setting).
/// The receiver yields the result together with the thread's
/// [`Handback`]: the whole [`Work`] it spent and the faults it fired;
/// [`watch`] folds that into the waiting thread.
///
/// This is the watchdog half of the rule that work crosses threads only
/// through a helper that hands the whole ledger back (`sched::map` is the
/// fan-out half). A worker its watchdog gives up on is detached, not
/// killed: it holds no locks, and its result and work go nowhere.
pub fn spawn_counted<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> mpsc::Receiver<(T, Handback)> {
    let (tx, rx) = mpsc::channel();
    let ctx = work::capture();
    thread::Builder::new()
        .name(name)
        .spawn(move || {
            let entered = ctx.enter();
            let out = body();
            let _ = tx.send((out, entered.leave()));
        })
        .expect("spawn counted worker");
    rx
}

/// Wait for a [`spawn_counted`] worker for at most `budget` (`None` waits
/// without a deadline) and fold the work it spent and the faults it fired
/// into this thread. Without a cancellation token this is one bounded
/// `recv_timeout`; with one it polls in 25 ms slices, so an abandoned
/// request stops waiting within one slice.
pub fn watch<T>(
    rx: &mpsc::Receiver<(T, Handback)>,
    cancel: Option<&CancelToken>,
    budget: Option<Duration>,
) -> Watch<(T, Work)> {
    let deadline = budget.and_then(|b| Instant::now().checked_add(b));
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Watch::Cancelled;
        }
        let now = Instant::now();
        let left = match deadline {
            Some(d) if now >= d => return Watch::Timeout,
            Some(d) => d - now,
            None => Duration::MAX,
        };
        let slice = match cancel {
            Some(_) => left.min(Duration::from_millis(25)),
            None => left,
        };
        match rx.recv_timeout(slice) {
            Ok((out, handback)) => return Watch::Done((out, handback.fold())),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Watch::Disconnected,
        }
    }
}

/// Outcome of one [`watch`] on a worker.
#[derive(Debug)]
pub enum Watch<M> {
    /// The worker finished and sent this.
    Done(M),
    /// The budget ran out first.
    Timeout,
    /// The cancellation token fired first.
    Cancelled,
    /// The worker died without sending (it panicked).
    Disconnected,
}

/// Whether an error is worth retrying. Coverage shortfalls, configuration
/// rejections, timeouts, post-repair audit failures and the farm's signoff
/// shortfall are deterministic — retrying only burns budget.
fn retryable(e: &CoreError) -> bool {
    !matches!(
        e,
        CoreError::Coverage { .. }
            | CoreError::Config { .. }
            | CoreError::StageTimeout { .. }
            | CoreError::AuditFailed { .. }
            | CoreError::Cancelled { .. }
            | CoreError::FarmCoverage { .. }
    )
}

/// Rebuild an [`ActivityProfile`] from its checkpointed sorted form.
fn rebuild_profile(a: &ActivityArtifact) -> ActivityProfile {
    let mut p = ActivityProfile::with_default(a.default_alpha);
    for (region, alpha) in &a.regions {
        p.set_region(region, *alpha);
    }
    for (name, per_cycle) in &a.macro_accesses {
        p.set_macro_access(name, *per_cycle);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable_and_unique() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Stage::ALL.len());
        assert_eq!(names[0], "calibrate");
        assert_eq!(names[7], "classify");
    }

    #[test]
    fn pipeline_key_is_deterministic_and_jobs_invariant() {
        let dir = std::env::temp_dir().join("cryo_supervise_key_test");
        let mut cfg = crate::FlowConfig::fast(&dir);
        cfg.fault_plan = None;
        let mut cfg8 = cfg.clone();
        cfg8.jobs = 8;
        let s1 = Supervisor::new(CryoFlow::new(cfg.clone()), SupervisorConfig::default());
        let s2 = Supervisor::new(CryoFlow::new(cfg), SupervisorConfig::default());
        let s8 = Supervisor::new(CryoFlow::new(cfg8), SupervisorConfig::default());
        let k = s1.pipeline_key().unwrap();
        assert_eq!(k, s2.pipeline_key().unwrap());
        assert_eq!(k, s8.pipeline_key().unwrap(), "jobs must not shift the key");
        let sup_cfg = SupervisorConfig {
            missing_arc_policy: MissingArcPolicy::Fail,
            ..SupervisorConfig::default()
        };
        let s_fail = Supervisor::new(s1.flow().clone(), sup_cfg);
        assert_ne!(
            k,
            s_fail.pipeline_key().unwrap(),
            "policy participates in the key"
        );
    }

    #[test]
    fn retry_policy_spares_deterministic_failures() {
        assert!(!retryable(&CoreError::Config {
            var: "CRYO_FAULTS".into(),
            value: "x".into(),
            reason: "bad".into(),
        }));
        assert!(!retryable(&CoreError::StageTimeout {
            stage: "sta300".into(),
            budget_s: 0.1,
        }));
        assert!(!retryable(&CoreError::Cancelled {
            stage: "charlib300".into(),
        }));
        assert!(retryable(&CoreError::Power(
            cryo_power::PowerError::NonFiniteAccumulation {
                instance: "u1".into(),
            }
        )));
    }

    /// A fresh checkpoint store for one runner test.
    fn step_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("cryo_step_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir, "step", "test").unwrap()
    }

    fn step<'a>(budget: Duration, cancel: Option<&'a CancelToken>) -> Step<'a> {
        Step {
            label: "synthetic",
            thread: "step-synthetic".into(),
            blob: "artifact",
            started: Instant::now(),
            overall_budget: Duration::from_secs(60),
            budget,
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            cancel,
            context: None,
        }
    }

    fn run_synthetic<F>(step: &Step<'_>, store: &CheckpointStore, body: F) -> StepRun<u64>
    where
        F: Fn() -> Result<u64> + Send + Sync + 'static,
    {
        run_step(step, store, |_| {}, |e| format!("shed: {e}"), body).expect("healthy store")
    }

    /// A body that counts its calls.
    fn counted(
        calls: &Arc<std::sync::atomic::AtomicU32>,
        body: impl Fn(u32) -> Result<u64> + Send + Sync + 'static,
    ) -> impl Fn() -> Result<u64> + Send + Sync + 'static {
        let calls = Arc::clone(calls);
        move || body(calls.fetch_add(1, Ordering::SeqCst) + 1)
    }

    #[test]
    fn step_retries_a_transient_error_then_checkpoints_the_artifact() {
        let store = step_store("retry");
        let calls = Arc::default();
        let started = std::cell::RefCell::new(Vec::new());
        let body = counted(&calls, |call| {
            if call == 1 {
                Err(CoreError::Power(
                    cryo_power::PowerError::NonFiniteAccumulation {
                        instance: "u1".into(),
                    },
                ))
            } else {
                Ok(42)
            }
        });
        let hook = |attempt| started.borrow_mut().push(attempt);
        let budget = Duration::from_secs(60);
        let run = run_step(&step(budget, None), &store, hook, |e| format!("{e}"), body).unwrap();
        assert_eq!(run.out.unwrap(), 42);
        assert_eq!((run.from_checkpoint, run.attempts), (false, 2));
        assert_eq!(
            *started.borrow(),
            vec![1, 2],
            "the hook runs before each attempt"
        );
        assert_eq!(
            store.load_blob("artifact"),
            serde_json::to_string(&42u64).ok()
        );
        assert!(run.shed.is_none());
    }

    #[test]
    fn step_stops_at_a_terminal_error_and_writes_no_blob() {
        let store = step_store("terminal");
        let calls = Arc::default();
        let body = counted(&calls, |_| {
            Err(CoreError::Config {
                var: "CRYO_JOBS".into(),
                value: "x".into(),
                reason: "bad".into(),
            })
        });
        let run = run_synthetic(&step(Duration::from_secs(60), None), &store, body);
        assert!(
            matches!(run.out, Err(CoreError::Config { .. })),
            "{:?}",
            run.out
        );
        assert_eq!(run.attempts, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(store.load_blob("artifact").is_none());
    }

    #[test]
    fn step_overrun_is_a_labelled_timeout_and_writes_no_blob() {
        let store = step_store("overrun");
        let budget = Duration::from_millis(20);
        let run = run_synthetic(&step(budget, None), &store, || {
            thread::sleep(Duration::from_millis(300));
            Ok(1)
        });
        match run.out {
            Err(CoreError::StageTimeout { stage, budget_s }) => {
                assert_eq!(stage, "synthetic");
                assert_eq!(budget_s, budget.as_secs_f64());
            }
            other => panic!("expected StageTimeout, got {other:?}"),
        }
        assert_eq!((run.attempts, run.work), (1, Work::default()));
        // The leaked worker finishes later and still writes nothing.
        thread::sleep(Duration::from_millis(400));
        assert!(store.load_blob("artifact").is_none());
    }

    #[test]
    fn step_recomputes_an_undecodable_blob_and_resumes_the_new_one() {
        let store = step_store("schema");
        store.store_blob("artifact", "\"an older schema\"").unwrap();
        let run = run_synthetic(&step(Duration::from_secs(60), None), &store, || Ok(7));
        assert_eq!((run.from_checkpoint, run.attempts), (false, 1));
        assert_eq!(run.out.unwrap(), 7);
        assert_eq!(
            store.load_blob("artifact"),
            serde_json::to_string(&7u64).ok()
        );

        let resumed = run_synthetic(&step(Duration::from_secs(60), None), &store, || {
            unreachable!("a resumed step never runs its body")
        });
        assert_eq!(resumed.out.unwrap(), 7);
        assert!(resumed.from_checkpoint);
        assert_eq!((resumed.attempts, resumed.wall_s), (0, 0.0));
        assert_eq!(resumed.work, Work::default());
    }

    #[test]
    fn cancelled_step_returns_before_any_attempt() {
        let store = step_store("cancel");
        let token = CancelToken::new();
        token.cancel();
        let calls = Arc::default();
        let body = counted(&calls, |_| Ok(1));
        let run = run_synthetic(&step(Duration::from_secs(60), Some(&token)), &store, body);
        match run.out {
            Err(CoreError::Cancelled { stage }) => assert_eq!(stage, "synthetic"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!((run.attempts, calls.load(Ordering::SeqCst)), (0, 0));
        assert!(store.load_blob("artifact").is_none());
    }

    #[test]
    fn a_watched_worker_hands_back_its_work_and_fired_faults() {
        let _g = fault::install_guard(FaultPlan {
            sta_lookup: 1.0,
            ..FaultPlan::new(2)
        });
        let _ = work::take();
        let rx = spawn_counted("fired".into(), || {
            work::bump(|w| w.arc_evals += 3);
            (0..2).all(|_| fault::should_fault_sta_lookup())
        });
        let Watch::Done((fired, spent)) = watch(&rx, None, None) else {
            panic!("the worker finishes");
        };
        assert!(fired);
        assert_eq!((spent.arc_evals, work::take().arc_evals), (3, 3));
        assert_eq!(fault::injection_count(), 2);
    }

    #[test]
    fn rebuilt_profile_round_trips_sorted_views() {
        let mut p = ActivityProfile::with_default(0.07);
        p.set_region("alu", 0.5).set_region("ifu", 0.25);
        p.set_macro_access("l1d", 0.75);
        let art = ActivityArtifact {
            default_alpha: p.default_alpha,
            regions: p.regions_sorted(),
            macro_accesses: p.macro_accesses_sorted(),
            cycles_per_item: 41.5,
        };
        let rebuilt = rebuild_profile(&art);
        assert_eq!(rebuilt.regions_sorted(), p.regions_sorted());
        assert_eq!(rebuilt.macro_accesses_sorted(), p.macro_accesses_sorted());
        assert_eq!(rebuilt.default_alpha, p.default_alpha);
    }
}
