//! Deterministic, seeded fault injection for resilience testing.
//!
//! The characterization flow needs a way to *prove* its degradation paths
//! work: retry ladders, graceful per-cell skipping, checkpoint quarantine.
//! This module provides the cross-stack injection harness: a [`FaultPlan`]
//! names which fault kinds to inject (and how often), and the solver entry
//! points in this crate — plus the cache writers in `cryo-cells` — consult
//! the active plan at well-defined sites.
//!
//! Design constraints:
//!
//! - **Deterministic.** Draws come from a seeded splitmix64 stream, so a
//!   failing test replays bit-for-bit from its seed. Entering a context
//!   label (see [`set_context`]) re-derives the stream from
//!   `seed ⊕ fnv(label)`, so under the parallel characterization scheduler
//!   a cell's fault schedule is a function of *the cell*, never of which
//!   worker thread picked it up or in what order.
//! - **Scoped.** A plan can be restricted to a context label (the cell
//!   currently being characterized) and to a maximum number of injections,
//!   so tests can kill exactly one cell's solves and assert everything else
//!   survives. The injection budget is tracked *per context* for the same
//!   reason the stream is: a budget shared across cells would be consumed
//!   in thread-interleaving order and break jobs-count invariance.
//! - **Thread-local.** `cargo test` runs tests on separate threads; each
//!   installs and clears its own injector without interference. Parallel
//!   characterization workers each install a clone of the parent plan
//!   (see [`current_plan`]) rather than sharing mutable injector state.
//! - **Zero-cost when idle.** All sites early-out on an inactive injector.
//!
//! The always-on solve counters live in [`crate::work`].

use std::cell::RefCell;

use crate::SpiceError;

/// The workspace's 64-bit content hash. It is FNV-1a's loop with the
/// multiplier `0x1000_0000_01b3`, which is not the FNV prime
/// `0x100_0000_01b3`, so `"a"` hashes to `0xaf74d84c8601ec8c` where true
/// FNV-1a (`cryo_surrogate::fnv64`) gives `0xaf63dc4c8601ec8c`.
///
/// Every library cache key, checkpoint checksum, fault draw (mixed into
/// the plan seed per context) and Monte-Carlo die seed comes from this
/// function, so changing the multiplier moves all of them at once.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Which injection site is being consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Entry of a DC operating-point solve.
    DcSolve,
    /// Entry of a transient analysis.
    TranSolve,
    /// A cache/checkpoint file write (consulted by `cryo-cells`).
    CacheWrite,
}

/// A declarative fault-injection plan.
///
/// Each field is an injection probability in `[0, 1]` evaluated per site
/// visit; `1.0` means "always fire" (until `max_injections` runs out).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// Probability a DC solve reports [`SpiceError::NoConvergence`].
    pub dc_no_convergence: f64,
    /// Probability a transient reports [`SpiceError::NoConvergence`].
    pub tran_no_convergence: f64,
    /// Probability a solve reports [`SpiceError::SingularMatrix`].
    pub singular_matrix: f64,
    /// Probability a solve sees a NaN device evaluation (poisons the MNA
    /// assembly; the solver must detect it and report
    /// [`SpiceError::NonFinite`]).
    pub nan_device: f64,
    /// Probability a cache/checkpoint write is truncated mid-file
    /// (simulates a crash during a non-atomic write).
    pub cache_corruption: f64,
    /// Probability a Liberty table ingest is truncated/corrupted
    /// (consulted by `cryo-liberty`'s parser; simulates a damaged `.lib`).
    pub liberty_ingest: f64,
    /// Probability an STA timing-arc lookup fails (consulted by
    /// `cryo-sta`; simulates a missing/garbled arc in the library).
    pub sta_lookup: f64,
    /// Probability a per-instance power contribution is poisoned with NaN
    /// (consulted by `cryo-power`'s aggregation loop).
    pub power_aggregation: f64,
    /// Probability a characterized cell has one delay-table entry
    /// bit-flipped (sign flip: a negative but finite delay — plausible
    /// enough to survive construction, wrong enough to kill a chip).
    /// Spec key: `corrupt=table[:p]`.
    pub corrupt_table: f64,
    /// Probability a cold-corner cell's delay tables are silently scaled
    /// (uniformly, preserving shape and monotonicity — only the
    /// cross-corner audit can see it). Spec key: `corrupt=delay[:p]`.
    pub corrupt_delay: f64,
    /// Probability the cryogenic Vth-shift coefficient is sign-flipped at
    /// a model-card use site, producing a card whose threshold *drops*
    /// when cold. Spec key: `corrupt=vth[:p]`.
    pub corrupt_vth: f64,
    /// When true, `corrupt=` faults persist across re-characterization
    /// generations (quarantine repair cannot clean them, so a gated run
    /// must fail structurally). Default: corruption is transient and a
    /// generation-1 repair runs clean. Spec key: `corrupt=sticky`.
    pub corrupt_sticky: bool,
    /// Probability a durable write lands torn: only a prefix of the
    /// payload reaches the final file (the write itself reports success —
    /// the damage is only visible at the next checksum verification).
    /// Consulted by the `cryo-cells` VFS shim. Spec key: `io=torn[:p]`.
    pub io_torn: f64,
    /// Probability a durable read returns a truncated prefix of the file
    /// (a short read the caller failed to loop on). Spec key:
    /// `io=shortread[:p]`.
    pub io_short_read: f64,
    /// Probability a durable read, write, or rename fails with a transient
    /// `EIO`. Spec key: `io=eio[:p]`.
    pub io_eio: f64,
    /// Probability a durable write fails with `ENOSPC` (errno 28). The
    /// pipeline must shed checkpointing and keep computing. Spec key:
    /// `io=enospc[:p]`.
    pub io_enospc: f64,
    /// Probability the atomic-commit rename is dropped: the tmp file is
    /// fully written but never renamed over the target (simulates a crash
    /// between the write and the rename; the caller sees success). Spec
    /// key: `io=renamedrop[:p]`.
    pub io_rename_drop: f64,
    /// Probability a committed write is recorded as "unsynced": it is
    /// acknowledged and visible, but the next simulated crash
    /// (`cryo_cells::vfs::crash_lose_unsynced`) reverts it to the
    /// pre-write contents — an fsync lie. Spec key: `io=fsynclie[:p]`.
    pub io_fsync_lie: f64,
    /// Restrict injection to contexts whose label contains this substring
    /// (e.g. a cell name). `None` injects everywhere.
    pub scope: Option<String>,
    /// Stop injecting after this many faults have fired. `None` is
    /// unlimited.
    pub max_injections: Option<u32>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            dc_no_convergence: 0.0,
            tran_no_convergence: 0.0,
            singular_matrix: 0.0,
            nan_device: 0.0,
            cache_corruption: 0.0,
            liberty_ingest: 0.0,
            sta_lookup: 0.0,
            power_aggregation: 0.0,
            corrupt_table: 0.0,
            corrupt_delay: 0.0,
            corrupt_vth: 0.0,
            corrupt_sticky: false,
            io_torn: 0.0,
            io_short_read: 0.0,
            io_eio: 0.0,
            io_enospc: 0.0,
            io_rename_drop: 0.0,
            io_fsync_lie: 0.0,
            scope: None,
            max_injections: None,
        }
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Parse a plan from the `CRYO_FAULTS` environment variable, the hook
    /// the experiment binaries use. Format: comma-separated `key=value`
    /// pairs, e.g.
    ///
    /// ```text
    /// CRYO_FAULTS="seed=42,dc=0.05,tran=0.02,singular=0.01,nan=0.01,cache=0.1,scope=NAND2x1,max=3"
    /// ```
    ///
    /// Returns `None` when the variable is unset or empty. Unknown keys and
    /// malformed values are ignored (the harness must never abort the flow
    /// it exists to protect). Supervised entry points should prefer
    /// [`FaultPlan::from_env_checked`], which surfaces malformed specs as a
    /// structured config error *before* any stage runs.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("CRYO_FAULTS").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        let mut plan = Self::default();
        for pair in raw.split(',') {
            let Some((k, v)) = pair.split_once('=') else {
                continue;
            };
            let _ = Self::apply_pair(&mut plan, k.trim(), v.trim());
        }
        Some(plan)
    }

    /// Strictly parse a `CRYO_FAULTS`-format spec string.
    ///
    /// Unlike [`FaultPlan::from_env`], every pair must be well-formed:
    /// unknown keys, missing `=`, unparsable numbers, and probabilities
    /// outside `[0, 1]` are all reported with the offending pair quoted.
    /// An empty/whitespace spec parses to `Ok(None)`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed pair.
    pub fn parse_spec(raw: &str) -> std::result::Result<Option<Self>, String> {
        if raw.trim().is_empty() {
            return Ok(None);
        }
        let mut plan = Self::default();
        for pair in raw.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((k, v)) = pair.split_once('=') else {
                return Err(format!("`{pair}` is not a key=value pair"));
            };
            Self::apply_pair(&mut plan, k.trim(), v.trim())?;
        }
        Ok(Some(plan))
    }

    /// Strictly parse the `CRYO_FAULTS` environment variable via
    /// [`FaultPlan::parse_spec`]. `Ok(None)` when unset or empty.
    ///
    /// # Errors
    ///
    /// A description of the first malformed pair, suitable for wrapping in
    /// a flow-level config error.
    pub fn from_env_checked() -> std::result::Result<Option<Self>, String> {
        match std::env::var("CRYO_FAULTS") {
            Ok(raw) => Self::parse_spec(&raw),
            Err(_) => Ok(None),
        }
    }

    /// Apply one `key=value` pair, strictly. Shared by the tolerant and
    /// checked parsers (the tolerant one discards the error).
    fn apply_pair(plan: &mut Self, k: &str, v: &str) -> std::result::Result<(), String> {
        fn prob(k: &str, v: &str) -> std::result::Result<f64, String> {
            let p: f64 = v.parse().map_err(|_| format!("`{k}={v}`: not a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("`{k}={v}`: probability outside [0, 1]"));
            }
            Ok(p)
        }
        match k {
            "seed" => {
                plan.seed = v.parse().map_err(|_| format!("`seed={v}`: not a u64"))?;
            }
            "dc" => plan.dc_no_convergence = prob(k, v)?,
            "tran" => plan.tran_no_convergence = prob(k, v)?,
            "singular" => plan.singular_matrix = prob(k, v)?,
            "nan" => plan.nan_device = prob(k, v)?,
            "cache" => plan.cache_corruption = prob(k, v)?,
            "liberty" => plan.liberty_ingest = prob(k, v)?,
            "sta" => plan.sta_lookup = prob(k, v)?,
            "power" => plan.power_aggregation = prob(k, v)?,
            "corrupt" => {
                // `corrupt=<kind>[:<p>]` with kinds table/delay/vth, plus
                // the bare flag `corrupt=sticky`. Unlike the crash faults,
                // these produce plausible-but-wrong *values*.
                let (kind, p) = match v.split_once(':') {
                    Some((kind, p)) => (kind, prob(k, p)?),
                    None => (v, 1.0),
                };
                match kind {
                    "table" => plan.corrupt_table = p,
                    "delay" => plan.corrupt_delay = p,
                    "vth" => plan.corrupt_vth = p,
                    "sticky" => plan.corrupt_sticky = true,
                    other => {
                        return Err(format!(
                            "`corrupt={other}`: unknown kind (expected table/delay/vth/sticky)"
                        ))
                    }
                }
            }
            "io" => {
                // `io=<kind>[:<p>]` — the storage-fault family, injected at
                // the `cryo-cells` VFS shim rather than a solver site.
                let (kind, p) = match v.split_once(':') {
                    Some((kind, p)) => (kind, prob(k, p)?),
                    None => (v, 1.0),
                };
                match kind {
                    "torn" => plan.io_torn = p,
                    "shortread" => plan.io_short_read = p,
                    "eio" => plan.io_eio = p,
                    "enospc" => plan.io_enospc = p,
                    "renamedrop" => plan.io_rename_drop = p,
                    "fsynclie" => plan.io_fsync_lie = p,
                    other => {
                        return Err(format!(
                            "`io={other}`: unknown kind (expected \
                             torn/shortread/eio/enospc/renamedrop/fsynclie)"
                        ))
                    }
                }
            }
            "scope" => plan.scope = Some(v.to_string()),
            "max" => {
                plan.max_injections = Some(v.parse().map_err(|_| format!("`max={v}`: not a u32"))?);
            }
            _ => return Err(format!("unknown key `{k}`")),
        }
        Ok(())
    }

    /// Whether the plan can inject anything at all.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.dc_no_convergence > 0.0
            || self.tran_no_convergence > 0.0
            || self.singular_matrix > 0.0
            || self.nan_device > 0.0
            || self.cache_corruption > 0.0
            || self.liberty_ingest > 0.0
            || self.sta_lookup > 0.0
            || self.power_aggregation > 0.0
            || self.corrupt_table > 0.0
            || self.corrupt_delay > 0.0
            || self.corrupt_vth > 0.0
            || self.io_torn > 0.0
            || self.io_short_read > 0.0
            || self.io_eio > 0.0
            || self.io_enospc > 0.0
            || self.io_rename_drop > 0.0
            || self.io_fsync_lie > 0.0
    }
}

/// What an armed solver site should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SolveFault {
    /// Fail the solve with `NoConvergence`.
    NoConvergence,
    /// Fail the solve with `SingularMatrix`.
    Singular,
    /// Poison device evaluations with NaN for the duration of the solve.
    NanDevice,
}

struct Injector {
    plan: FaultPlan,
    rng: u64,
    /// Total faults fired since install (reported by [`injection_count`]).
    fired: u32,
    /// Faults fired in the current context; `max_injections` bounds this,
    /// so the budget — like the draw stream — is a function of the context
    /// label and independent of scheduling order.
    context_fired: u32,
    context: String,
}

impl Injector {
    /// splitmix64: deterministic, stateless-friendly, good enough for
    /// Bernoulli draws.
    fn next_unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn in_scope(&self) -> bool {
        match &self.plan.scope {
            Some(s) => self.context.contains(s.as_str()),
            None => true,
        }
    }

    fn budget_left(&self) -> bool {
        match self.plan.max_injections {
            Some(m) => self.context_fired < m,
            None => true,
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 || !self.in_scope() || !self.budget_left() {
            return false;
        }
        if self.next_unit() < p {
            self.fired += 1;
            self.context_fired += 1;
            true
        } else {
            false
        }
    }
}

thread_local! {
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
    static NAN_POISON: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install `plan` as this thread's active injector (replacing any previous
/// one). Prefer [`install_guard`] in library code so the injector cannot
/// leak past a panic or early return.
pub fn install(plan: FaultPlan) {
    INJECTOR.with(|i| {
        *i.borrow_mut() = Some(Injector {
            rng: plan.seed ^ 0x6a09_e667_f3bc_c908,
            plan,
            fired: 0,
            context_fired: 0,
            context: String::new(),
        });
    });
}

/// A clone of the plan installed on this thread, if any. The parallel
/// characterization scheduler captures this before spawning workers so each
/// worker can install its own injector ([`install_guard`]) and reproduce
/// the exact per-cell fault schedule the serial path would.
#[must_use]
pub fn current_plan() -> Option<FaultPlan> {
    INJECTOR.with(|i| i.borrow().as_ref().map(|inj| inj.plan.clone()))
}

/// Remove the active injector (and any pending NaN poison).
pub fn clear() {
    INJECTOR.with(|i| *i.borrow_mut() = None);
    NAN_POISON.with(|p| p.set(false));
}

/// Whether an injector is installed on this thread.
#[must_use]
pub fn is_active() -> bool {
    INJECTOR.with(|i| i.borrow().is_some())
}

/// Number of faults the active injector has fired so far (0 when idle),
/// counting those its workers fired and handed back
/// ([`crate::work::Handback::fold`]).
#[must_use]
pub fn injection_count() -> u32 {
    INJECTOR.with(|i| i.borrow().as_ref().map_or(0, |inj| inj.fired))
}

/// Count `n` faults fired on a worker thread against the active injector
/// (nothing when idle). Budgets are per context, so none changes.
pub(crate) fn add_injections(n: u32) {
    INJECTOR.with(|i| {
        if let Some(inj) = i.borrow_mut().as_mut() {
            inj.fired += n;
        }
    });
}

/// Label the current injection context (typically the cell under
/// characterization) so scoped plans can target it.
///
/// Entering a context re-derives the draw stream from
/// `seed ⊕ fnv(label)` and resets the per-context injection budget. This
/// is the determinism contract of the parallel characterization scheduler:
/// a cell's fault schedule depends only on (plan, cell name), never on
/// which thread runs the cell or how work was interleaved. Re-entering the
/// same label replays the same stream. The empty label restores the
/// install-time stream, so code that never sets a context keeps one
/// continuous stream per install (the pre-parallel behavior).
pub fn set_context(label: &str) {
    INJECTOR.with(|i| {
        if let Some(inj) = i.borrow_mut().as_mut() {
            if inj.context != label {
                inj.context.clear();
                inj.context.push_str(label);
                inj.context_fired = 0;
                inj.rng = if label.is_empty() {
                    inj.plan.seed ^ 0x6a09_e667_f3bc_c908
                } else {
                    inj.plan.seed ^ fnv1a(label.as_bytes())
                };
            }
        }
    });
}

/// RAII guard returned by [`install_guard`]; clears the injector on drop.
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Install `plan` and return a guard that uninstalls it when dropped.
#[must_use]
pub fn install_guard(plan: FaultPlan) -> FaultGuard {
    install(plan);
    FaultGuard(())
}

/// Consult the injector at a solver entry site.
pub(crate) fn begin_solve(site: FaultSite) -> Option<SolveFault> {
    INJECTOR.with(|i| {
        let mut borrow = i.borrow_mut();
        let inj = borrow.as_mut()?;
        let conv_p = match site {
            FaultSite::DcSolve => inj.plan.dc_no_convergence,
            FaultSite::TranSolve => inj.plan.tran_no_convergence,
            FaultSite::CacheWrite => 0.0,
        };
        if inj.roll(conv_p) {
            return Some(SolveFault::NoConvergence);
        }
        let singular_p = inj.plan.singular_matrix;
        if inj.roll(singular_p) {
            return Some(SolveFault::Singular);
        }
        let nan_p = inj.plan.nan_device;
        if inj.roll(nan_p) {
            return Some(SolveFault::NanDevice);
        }
        None
    })
}

/// Roll the active injector against a plan-field selector; `false` when
/// idle. Shared body of the public cross-crate consult sites.
fn roll_site(select: impl Fn(&FaultPlan) -> f64) -> bool {
    INJECTOR.with(|i| {
        let mut borrow = i.borrow_mut();
        match borrow.as_mut() {
            Some(inj) => {
                let p = select(&inj.plan);
                inj.roll(p)
            }
            None => false,
        }
    })
}

/// Whether the active plan wants this cache/checkpoint write truncated.
/// Consulted by `cryo-cells` before committing a file.
#[must_use]
pub fn should_corrupt_cache_write() -> bool {
    roll_site(|p| p.cache_corruption)
}

/// Whether the active plan wants this Liberty table ingest corrupted.
/// Consulted by `cryo-liberty` while parsing lookup tables; a hit makes
/// the parser see a truncated table and report a structured
/// `MalformedTable` diagnostic.
#[must_use]
pub fn should_corrupt_liberty_ingest() -> bool {
    roll_site(|p| p.liberty_ingest)
}

/// Whether the active plan wants this STA timing-arc lookup to fail.
/// Consulted by `cryo-sta` per combinational arc; a hit makes the arc
/// unusable, exercising the engine's missing-arc degradation policy.
#[must_use]
pub fn should_fault_sta_lookup() -> bool {
    roll_site(|p| p.sta_lookup)
}

/// Whether the active plan wants this per-instance power contribution
/// poisoned to NaN. Consulted by `cryo-power`'s aggregation loop; the
/// aggregator must detect the non-finite total and fail structurally.
#[must_use]
pub fn should_fault_power_accum() -> bool {
    roll_site(|p| p.power_aggregation)
}

// ----------------------------------------------------------------------
// Storage-fault sites (`io=` family)
// ----------------------------------------------------------------------

/// What an armed durable *write* should do. Returned by
/// [`io_write_fault`], consulted by the `cryo-cells` VFS shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoWriteFault {
    /// Commit only a prefix of the payload, then report success.
    Torn,
    /// Fail with a transient `EIO`.
    Eio,
    /// Fail with `ENOSPC` (no space left on device).
    Enospc,
}

/// What an armed durable *read* should do. Returned by [`io_read_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoReadFault {
    /// Return a truncated prefix of the file contents.
    ShortRead,
    /// Fail with a transient `EIO`.
    Eio,
}

/// What an armed atomic-commit *rename* should do. Returned by
/// [`io_rename_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoRenameFault {
    /// Skip the rename, leaving the orphan tmp file, and report success.
    Drop,
    /// Fail with a transient `EIO`.
    Eio,
}

/// Consult the injector at a durable-write site. Rolls the write-family
/// probabilities in fixed order (torn, eio, enospc); the first hit wins.
/// Like `cache=`, these draws advance the per-context stream, so a cell's
/// storage-fault schedule depends only on (plan, context).
#[must_use]
pub fn io_write_fault() -> Option<IoWriteFault> {
    INJECTOR.with(|i| {
        let mut borrow = i.borrow_mut();
        let inj = borrow.as_mut()?;
        let (torn, eio, enospc) = (inj.plan.io_torn, inj.plan.io_eio, inj.plan.io_enospc);
        if inj.roll(torn) {
            return Some(IoWriteFault::Torn);
        }
        if inj.roll(eio) {
            return Some(IoWriteFault::Eio);
        }
        if inj.roll(enospc) {
            return Some(IoWriteFault::Enospc);
        }
        None
    })
}

/// Consult the injector at a durable-read site (shortread, then eio).
#[must_use]
pub fn io_read_fault() -> Option<IoReadFault> {
    INJECTOR.with(|i| {
        let mut borrow = i.borrow_mut();
        let inj = borrow.as_mut()?;
        let (short, eio) = (inj.plan.io_short_read, inj.plan.io_eio);
        if inj.roll(short) {
            return Some(IoReadFault::ShortRead);
        }
        if inj.roll(eio) {
            return Some(IoReadFault::Eio);
        }
        None
    })
}

/// Consult the injector at an atomic-commit rename site (drop, then eio).
#[must_use]
pub fn io_rename_fault() -> Option<IoRenameFault> {
    INJECTOR.with(|i| {
        let mut borrow = i.borrow_mut();
        let inj = borrow.as_mut()?;
        let (drop_p, eio) = (inj.plan.io_rename_drop, inj.plan.io_eio);
        if inj.roll(drop_p) {
            return Some(IoRenameFault::Drop);
        }
        if inj.roll(eio) {
            return Some(IoRenameFault::Eio);
        }
        None
    })
}

/// Whether the active plan wants this committed write recorded as
/// unsynced (lost on the next simulated crash). Consulted after a
/// successful atomic commit.
#[must_use]
pub fn io_fsync_lie() -> bool {
    roll_site(|p| p.io_fsync_lie)
}

// ----------------------------------------------------------------------
// Silent-corruption sites (`corrupt=` family)
// ----------------------------------------------------------------------

/// Which value-corruption family a site consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Bit-flip one delay-table entry (sign flip).
    Table,
    /// Uniformly scale a cold-corner cell's delays.
    Delay,
    /// Sign-flip the cryogenic Vth-shift coefficient.
    Vth,
}

impl CorruptKind {
    fn label(self) -> &'static str {
        match self {
            CorruptKind::Table => "table",
            CorruptKind::Delay => "delay",
            CorruptKind::Vth => "vth",
        }
    }
}

/// One splitmix64 output for an arbitrary state word, mapped to `[0, 1)`.
fn splitmix64_unit(state: u64) -> f64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether the active plan wants this entity's values silently corrupted.
///
/// `salt` identifies the entity (e.g. `NAND2x1@10`), and `generation`
/// counts re-characterization passes: generation > 0 runs clean unless
/// the plan is `corrupt=sticky`, which is how the quarantine-repair round
/// trip is provable — transient corruption repairs, sticky corruption
/// must surface as a structured audit failure.
///
/// Unlike the crash-fault sites, the draw comes from a *stateless* stream
/// keyed on `seed ⊕ fnv("corrupt:<kind>:<salt>")` and never advances the
/// injector's sequential rng: corrupting a value must not perturb the
/// fault schedule of every site that follows, or the byte-identity
/// contracts (jobs 1 vs N, serial vs parallel) would silently break.
/// Scope and the per-context injection budget still apply.
#[must_use]
pub fn should_corrupt(kind: CorruptKind, salt: &str, generation: u32) -> bool {
    INJECTOR.with(|i| {
        let mut borrow = i.borrow_mut();
        let Some(inj) = borrow.as_mut() else {
            return false;
        };
        let p = match kind {
            CorruptKind::Table => inj.plan.corrupt_table,
            CorruptKind::Delay => inj.plan.corrupt_delay,
            CorruptKind::Vth => inj.plan.corrupt_vth,
        };
        if p <= 0.0 || !inj.in_scope() || !inj.budget_left() {
            return false;
        }
        if generation > 0 && !inj.plan.corrupt_sticky {
            return false;
        }
        let key = format!("corrupt:{}:{salt}", kind.label());
        if splitmix64_unit(inj.plan.seed ^ fnv1a(key.as_bytes())) < p {
            inj.fired += 1;
            inj.context_fired += 1;
            true
        } else {
            false
        }
    })
}

/// Deterministically pick an index in `[0, n)` for a corruption site —
/// which table entry to flip, which arc to scale. Stateless (same salted
/// stream as [`should_corrupt`]); returns 0 when no injector is active or
/// `n` is 0/1.
#[must_use]
pub fn corrupt_pick(salt: &str, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    INJECTOR.with(|i| {
        let borrow = i.borrow();
        let Some(inj) = borrow.as_ref() else {
            return 0;
        };
        let key = format!("pick:{salt}");
        let u = splitmix64_unit(inj.plan.seed ^ fnv1a(key.as_bytes()));
        ((u * n as f64) as usize).min(n - 1)
    })
}

/// Arm or disarm NaN poisoning of device evaluations for the current solve.
pub(crate) fn set_nan_poison(on: bool) {
    NAN_POISON.with(|p| p.set(on));
}

/// Whether device evaluations should currently be poisoned with NaN.
pub(crate) fn nan_poisoned() -> bool {
    NAN_POISON.with(std::cell::Cell::get)
}

/// Guard that disarms NaN poisoning when dropped (survives `?` returns).
pub(crate) struct NanPoisonGuard(());

impl NanPoisonGuard {
    pub(crate) fn armed() -> Self {
        set_nan_poison(true);
        Self(())
    }
}

impl Drop for NanPoisonGuard {
    fn drop(&mut self) {
        set_nan_poison(false);
    }
}

/// Synthesize the injected error for a solver site.
pub(crate) fn injected_error(fault: SolveFault, analysis: &'static str) -> SpiceError {
    match fault {
        SolveFault::NoConvergence => SpiceError::NoConvergence {
            analysis,
            time: 0.0,
            residual: f64::INFINITY,
        },
        SolveFault::Singular => SpiceError::SingularMatrix {
            column: 0,
            node: None,
        },
        // NanDevice is not an immediate error — callers arm the poison and
        // let the solver detect the non-finite evaluation — but a fallback
        // mapping keeps the match total.
        SolveFault::NanDevice => SpiceError::NonFinite {
            analysis,
            time: 0.0,
        },
    }
}

/// Read-only view of this thread's [`crate::work`] ledger, kept for the
/// benchmark's tracer; new code calls [`crate::work::get`].
pub use crate::work::get as sim_counts;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_keeps_the_workspace_multiplier() {
        // Not true FNV-1a ("a" → 0xaf63dc4c8601ec8c): every cache key and
        // checkpoint checksum on disk depends on this value.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn idle_injector_never_fires() {
        clear();
        assert!(!is_active());
        assert_eq!(begin_solve(FaultSite::DcSolve), None);
        assert!(!should_corrupt_cache_write());
    }

    #[test]
    fn scoped_plan_only_fires_in_scope() {
        let plan = FaultPlan {
            dc_no_convergence: 1.0,
            scope: Some("NAND2x1".into()),
            ..FaultPlan::new(7)
        };
        let _g = install_guard(plan);
        set_context("INVx1");
        assert_eq!(begin_solve(FaultSite::DcSolve), None);
        set_context("NAND2x1");
        assert_eq!(
            begin_solve(FaultSite::DcSolve),
            Some(SolveFault::NoConvergence)
        );
    }

    #[test]
    fn max_injections_bounds_the_damage() {
        let plan = FaultPlan {
            tran_no_convergence: 1.0,
            max_injections: Some(2),
            ..FaultPlan::new(3)
        };
        let _g = install_guard(plan);
        assert!(begin_solve(FaultSite::TranSolve).is_some());
        assert!(begin_solve(FaultSite::TranSolve).is_some());
        assert_eq!(begin_solve(FaultSite::TranSolve), None, "budget exhausted");
        assert_eq!(injection_count(), 2);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let plan = FaultPlan {
            dc_no_convergence: 0.5,
            ..FaultPlan::new(99)
        };
        let sample = |p: FaultPlan| -> Vec<bool> {
            let _g = install_guard(p);
            (0..32)
                .map(|_| begin_solve(FaultSite::DcSolve).is_some())
                .collect()
        };
        let a = sample(plan.clone());
        let b = sample(plan);
        assert_eq!(a, b, "same seed, same stream");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn guard_clears_on_drop() {
        {
            let _g = install_guard(FaultPlan::new(1));
            assert!(is_active());
        }
        assert!(!is_active());
    }

    #[test]
    fn context_stream_is_a_function_of_the_label_not_of_history() {
        let plan = FaultPlan {
            dc_no_convergence: 0.5,
            ..FaultPlan::new(123)
        };
        let draws = |p: &FaultPlan, labels: &[&str]| -> Vec<Vec<bool>> {
            let _g = install_guard(p.clone());
            labels
                .iter()
                .map(|l| {
                    set_context(l);
                    (0..16)
                        .map(|_| begin_solve(FaultSite::DcSolve).is_some())
                        .collect()
                })
                .collect()
        };
        // Visit order must not matter: each cell replays its own stream.
        let forward = draws(&plan, &["INVx1", "NAND2x1", "DFFx1"]);
        let reverse = draws(&plan, &["DFFx1", "NAND2x1", "INVx1"]);
        assert_eq!(forward[0], reverse[2], "INVx1 stream is order-independent");
        assert_eq!(
            forward[1], reverse[1],
            "NAND2x1 stream is order-independent"
        );
        assert_eq!(forward[2], reverse[0], "DFFx1 stream is order-independent");
        assert_ne!(
            forward[0], forward[1],
            "distinct cells draw distinct streams"
        );
    }

    #[test]
    fn injection_budget_is_per_context() {
        let plan = FaultPlan {
            dc_no_convergence: 1.0,
            max_injections: Some(1),
            ..FaultPlan::new(9)
        };
        let _g = install_guard(plan);
        set_context("INVx1");
        assert!(begin_solve(FaultSite::DcSolve).is_some());
        assert_eq!(begin_solve(FaultSite::DcSolve), None, "INVx1 budget spent");
        set_context("INVx2");
        assert!(
            begin_solve(FaultSite::DcSolve).is_some(),
            "a fresh context gets a fresh budget, independent of visit order"
        );
        assert_eq!(injection_count(), 2, "total count still accumulates");
    }

    #[test]
    fn current_plan_round_trips_for_worker_inheritance() {
        assert_eq!(current_plan(), None);
        let plan = FaultPlan {
            tran_no_convergence: 0.25,
            scope: Some("XORx1".into()),
            ..FaultPlan::new(77)
        };
        let _g = install_guard(plan.clone());
        assert_eq!(current_plan(), Some(plan));
    }

    #[test]
    fn parse_spec_accepts_the_full_documented_grammar() {
        let plan = FaultPlan::parse_spec(
            "seed=42,dc=0.05,tran=0.02,singular=0.01,nan=0.01,cache=0.1,\
             liberty=0.2,sta=0.3,power=0.4,scope=NAND2x1,max=3",
        )
        .unwrap()
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert!((plan.liberty_ingest - 0.2).abs() < 1e-12);
        assert!((plan.sta_lookup - 0.3).abs() < 1e-12);
        assert!((plan.power_aggregation - 0.4).abs() < 1e-12);
        assert_eq!(plan.scope.as_deref(), Some("NAND2x1"));
        assert_eq!(plan.max_injections, Some(3));
        assert!(plan.is_armed());
        assert_eq!(FaultPlan::parse_spec("  ").unwrap(), None);
    }

    #[test]
    fn parse_spec_rejects_malformed_pairs() {
        for (spec, needle) in [
            ("dc=banana", "not a number"),
            ("dc=1.5", "outside [0, 1]"),
            ("seed=-1", "not a u64"),
            ("max=lots", "not a u32"),
            ("bogus=1", "unknown key"),
            ("justtext", "not a key=value pair"),
        ] {
            let err = FaultPlan::parse_spec(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "spec `{spec}` should report `{needle}`, got `{err}`"
            );
        }
    }

    #[test]
    fn upper_layer_sites_fire_and_honor_scope() {
        let plan = FaultPlan {
            liberty_ingest: 1.0,
            sta_lookup: 1.0,
            power_aggregation: 1.0,
            scope: Some("stage:sta".into()),
            ..FaultPlan::new(5)
        };
        let _g = install_guard(plan);
        set_context("stage:power");
        assert!(!should_fault_sta_lookup(), "out of scope");
        set_context("stage:sta");
        assert!(should_fault_sta_lookup());
        assert!(should_corrupt_liberty_ingest());
        assert!(should_fault_power_accum());
        assert_eq!(injection_count(), 3);
    }

    #[test]
    fn parse_spec_accepts_the_corrupt_family() {
        let plan = FaultPlan::parse_spec("seed=7,corrupt=table,corrupt=delay:0.25,corrupt=vth:0.5")
            .unwrap()
            .unwrap();
        assert!(
            (plan.corrupt_table - 1.0).abs() < 1e-12,
            "bare kind means p=1"
        );
        assert!((plan.corrupt_delay - 0.25).abs() < 1e-12);
        assert!((plan.corrupt_vth - 0.5).abs() < 1e-12);
        assert!(!plan.corrupt_sticky);
        assert!(plan.is_armed());
        let sticky = FaultPlan::parse_spec("corrupt=table,corrupt=sticky")
            .unwrap()
            .unwrap();
        assert!(sticky.corrupt_sticky);
        let err = FaultPlan::parse_spec("corrupt=everything").unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        let err = FaultPlan::parse_spec("corrupt=table:2.0").unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn parse_spec_accepts_the_io_family() {
        let plan = FaultPlan::parse_spec(
            "seed=9,io=torn,io=shortread:0.25,io=eio:0.1,io=enospc:0.5,\
             io=renamedrop:0.2,io=fsynclie:0.3",
        )
        .unwrap()
        .unwrap();
        assert!((plan.io_torn - 1.0).abs() < 1e-12, "bare kind means p=1");
        assert!((plan.io_short_read - 0.25).abs() < 1e-12);
        assert!((plan.io_eio - 0.1).abs() < 1e-12);
        assert!((plan.io_enospc - 0.5).abs() < 1e-12);
        assert!((plan.io_rename_drop - 0.2).abs() < 1e-12);
        assert!((plan.io_fsync_lie - 0.3).abs() < 1e-12);
        assert!(plan.is_armed());
        let err = FaultPlan::parse_spec("io=diskfire").unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        let err = FaultPlan::parse_spec("io=torn:7").unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn io_sites_fire_deterministically_per_context() {
        let plan = FaultPlan {
            io_torn: 0.5,
            io_short_read: 0.5,
            io_rename_drop: 0.5,
            ..FaultPlan::new(77)
        };
        let drill = || -> Vec<Option<IoWriteFault>> {
            let _g = install_guard(plan.clone());
            set_context("INVx1");
            (0..8).map(|_| io_write_fault()).collect()
        };
        assert_eq!(drill(), drill(), "same (plan, context) → same schedule");
        assert!(
            drill().iter().any(Option::is_some),
            "p=0.5 over 8 draws should fire at least once"
        );
    }

    #[test]
    fn io_budget_and_scope_bound_the_damage() {
        let plan = FaultPlan {
            io_enospc: 1.0,
            scope: Some("NAND".into()),
            max_injections: Some(2),
            ..FaultPlan::new(3)
        };
        let _g = install_guard(plan);
        set_context("INVx1");
        assert_eq!(io_write_fault(), None, "out of scope");
        set_context("NAND2x1");
        assert_eq!(io_write_fault(), Some(IoWriteFault::Enospc));
        assert_eq!(io_write_fault(), Some(IoWriteFault::Enospc));
        assert_eq!(io_write_fault(), None, "budget exhausted");
    }

    #[test]
    fn corrupt_draws_are_stateless_and_salted() {
        let plan = FaultPlan {
            corrupt_table: 0.5,
            dc_no_convergence: 0.5,
            ..FaultPlan::new(11)
        };
        // The crash-fault stream must be identical whether or not corrupt
        // sites were consulted in between: corruption is a parallel salted
        // stream, not part of the sequential draw order.
        let crash_draws = |consult_corrupt: bool| -> Vec<bool> {
            let _g = install_guard(plan.clone());
            (0..16)
                .map(|i| {
                    if consult_corrupt {
                        let _ = should_corrupt(CorruptKind::Table, &format!("CELL{i}@10"), 0);
                    }
                    begin_solve(FaultSite::DcSolve).is_some()
                })
                .collect()
        };
        assert_eq!(crash_draws(false), crash_draws(true));
        // Per-salt decisions are deterministic and not all equal.
        let decide = |salt: &str| {
            let _g = install_guard(plan.clone());
            should_corrupt(CorruptKind::Table, salt, 0)
        };
        let picks: Vec<bool> = (0..32).map(|i| decide(&format!("CELL{i}@10"))).collect();
        assert_eq!(
            picks,
            (0..32)
                .map(|i| decide(&format!("CELL{i}@10")))
                .collect::<Vec<_>>()
        );
        assert!(picks.iter().any(|&x| x) && picks.iter().any(|&x| !x));
    }

    #[test]
    fn corruption_is_transient_unless_sticky() {
        let mut plan = FaultPlan {
            corrupt_vth: 1.0,
            ..FaultPlan::new(2)
        };
        {
            let _g = install_guard(plan.clone());
            assert!(should_corrupt(CorruptKind::Vth, "nfet", 0));
            assert!(
                !should_corrupt(CorruptKind::Vth, "nfet", 1),
                "generation 1 (repair) runs clean by default"
            );
        }
        plan.corrupt_sticky = true;
        let _g = install_guard(plan);
        assert!(should_corrupt(CorruptKind::Vth, "nfet", 0));
        assert!(
            should_corrupt(CorruptKind::Vth, "nfet", 1),
            "sticky corruption survives repair"
        );
    }

    #[test]
    fn corrupt_sites_honor_scope_and_budget() {
        let plan = FaultPlan {
            corrupt_table: 1.0,
            scope: Some("NAND".into()),
            max_injections: Some(1),
            ..FaultPlan::new(4)
        };
        let _g = install_guard(plan);
        set_context("INVx1");
        assert!(!should_corrupt(CorruptKind::Table, "INVx1@300", 0));
        set_context("NAND2x1");
        assert!(should_corrupt(CorruptKind::Table, "NAND2x1@300", 0));
        assert!(
            !should_corrupt(CorruptKind::Table, "NAND2x1@300", 0),
            "per-context budget applies to corrupt sites too"
        );
    }

    #[test]
    fn corrupt_pick_is_deterministic_and_in_range() {
        assert_eq!(corrupt_pick("x", 9), 0, "idle injector picks 0");
        let _g = install_guard(FaultPlan::new(21));
        let a = corrupt_pick("NAND2x1@10/arc0", 49);
        let b = corrupt_pick("NAND2x1@10/arc0", 49);
        assert_eq!(a, b);
        assert!(a < 49);
        assert_eq!(corrupt_pick("anything", 1), 0);
        let distinct: std::collections::HashSet<usize> = (0..16)
            .map(|i| corrupt_pick(&format!("s{i}"), 49))
            .collect();
        assert!(distinct.len() > 4, "salts spread across the range");
    }
}
