//! The standard-cell characterization engine.
//!
//! For every cell this module reproduces the PrimeLib flow of the paper's
//! Fig. 4: define the functionality of each cell, build stimuli for all
//! timing arcs, run SPICE transients over a slew × load grid, and collect
//! delays, output transitions, switching energies, per-state leakage, and
//! pin capacitances into a [`cryo_liberty::Library`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cryo_device::{FinFet, ModelCard};
use cryo_liberty::{
    ArcKind, Cell, FfSpec, Library, LogicFunction, Lut2, Pin, PowerArc, TimingArc, TimingSense,
};
use cryo_spice::dc::dc_operating_point_with;
use cryo_spice::{fault, sparse, transient, Circuit, Source, TranConfig, GROUND};

use crate::checkpoint::{CheckpointStore, QUARANTINE_KEEP};
use crate::report::{CellOutcome, CellStatus, CharReport};
use crate::sched;
use crate::topology::CellNetlist;
use crate::{CellError, Result};

/// Characterization configuration: operating condition and measurement grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CharConfig {
    /// Junction temperature, kelvin.
    pub temp: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Input-slew axis (20–80 % transition times), seconds.
    pub slews: Vec<f64>,
    /// Output-load axis for a unit-drive cell, farads; scaled linearly with
    /// cell drive so every cell is measured over its realistic fanout range.
    pub loads_x1: Vec<f64>,
    /// Transient resolution (steps per analysis window).
    pub steps: usize,
    /// Print one progress line per cell to stderr.
    pub progress: bool,
    /// Maximum characterization attempts per cell before it is declared
    /// failed; attempts beyond the first climb the recovery ladder
    /// ([`RecoveryLevel::ladder`]). Does not participate in the cache key.
    pub max_attempts: usize,
    /// Worker threads for per-cell parallel characterization. `0` (the
    /// default) auto-detects: a positive `CRYO_JOBS` environment variable
    /// wins, then [`std::thread::available_parallelism`]. `1` runs the
    /// serial path on the calling thread. Parallel and serial runs produce
    /// byte-identical libraries (see `tests/parallel_determinism.rs`), so —
    /// like `max_attempts` — this knob does not participate in the cache
    /// key.
    pub jobs: usize,
}

impl CharConfig {
    /// The paper's 7 × 7 slew/load grid at temperature `temp`.
    #[must_use]
    pub fn full(temp: f64) -> Self {
        Self {
            temp,
            vdd: 0.70,
            slews: vec![2.5e-12, 5e-12, 10e-12, 20e-12, 40e-12, 80e-12, 160e-12],
            loads_x1: vec![
                0.4e-15, 0.8e-15, 1.6e-15, 3.2e-15, 6.4e-15, 12.8e-15, 25.6e-15,
            ],
            steps: 220,
            progress: false,
            max_attempts: 3,
            jobs: 0,
        }
    }

    /// A reduced 3 × 3 grid for tests and quick experiments.
    #[must_use]
    pub fn fast(temp: f64) -> Self {
        Self {
            temp,
            vdd: 0.70,
            slews: vec![5e-12, 20e-12, 80e-12],
            loads_x1: vec![0.8e-15, 3.2e-15, 12.8e-15],
            steps: 150,
            progress: false,
            max_attempts: 3,
            jobs: 0,
        }
    }

    /// Load axis for a cell of the given drive strength.
    #[must_use]
    pub fn loads_for(&self, drive: u32) -> Vec<f64> {
        self.loads_x1.iter().map(|l| l * f64::from(drive)).collect()
    }

    /// The worker count this configuration resolves to (`jobs`, then
    /// `CRYO_JOBS`, then available parallelism).
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        sched::resolve_jobs(self.jobs)
    }
}

/// One rung of the per-cell recovery ladder: the analysis settings used on
/// a given characterization attempt. Escalating rungs trade runtime for a
/// wider convergence basin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryLevel {
    /// Multiplier on the transient step count (finer timestep).
    pub steps_scale: f64,
    /// Multiplier on the analysis settling window (longer observation).
    pub window_scale: f64,
    /// Newton shunt conductance (relaxed from the 1e-12 S baseline on the
    /// last rung to widen the convergence basin).
    pub gmin: f64,
}

impl RecoveryLevel {
    /// The first-attempt settings: the plain configuration.
    pub const BASELINE: Self = Self {
        steps_scale: 1.0,
        window_scale: 1.0,
        gmin: 1e-12,
    };

    /// The escalation ladder. Attempt `n` uses rung `min(n, len - 1)`:
    /// baseline, then more transient steps over a longer window, then a
    /// tighter timestep with relaxed starting gmin on top.
    #[must_use]
    pub fn ladder() -> &'static [RecoveryLevel] {
        const LADDER: [RecoveryLevel; 3] = [
            RecoveryLevel::BASELINE,
            RecoveryLevel {
                steps_scale: 2.0,
                window_scale: 1.5,
                gmin: 1e-12,
            },
            RecoveryLevel {
                steps_scale: 3.0,
                window_scale: 2.0,
                gmin: 1e-9,
            },
        ];
        &LADDER
    }

    /// Transient step count for this rung given the configured baseline.
    #[must_use]
    pub fn steps(&self, base: usize) -> usize {
        ((base as f64) * self.steps_scale).ceil() as usize
    }

    /// Transient configuration for this rung.
    fn tran(&self, tstop: f64, base_steps: usize) -> TranConfig {
        TranConfig::with_steps(tstop, self.steps(base_steps)).with_gmin(self.gmin)
    }
}

/// Whether retrying at a higher recovery rung can plausibly fix `e`.
/// Solver failures (non-convergence, singular matrices, NaN poisoning) and
/// measurement failures (a window too short for the waveform to cross its
/// thresholds) are retryable; structural errors are not.
fn retryable(e: &CellError) -> bool {
    matches!(e, CellError::Spice { .. } | CellError::Measurement { .. })
}

/// The characterization engine bound to n/p model cards and a configuration.
#[derive(Debug, Clone)]
pub struct Characterizer {
    nfet: ModelCard,
    pfet: ModelCard,
    cfg: CharConfig,
    /// Re-characterization generation: 0 for the first pass, bumped by the
    /// audit firewall's targeted repair pass. Transient `corrupt=` faults
    /// fire only at generation 0 (see [`cryo_spice::fault::should_corrupt`]).
    generation: u32,
    /// Cells whose checkpoint write was shed after the store hit `ENOSPC`
    /// (the one I/O failure the engine degrades around: computation
    /// continues, durability is given up, and the count is surfaced in
    /// `CharReport::checkpoints_shed`). Shared across worker clones so
    /// shedding is engine-wide, not per-thread.
    shed_checkpoints: Arc<AtomicU64>,
}

/// A single measured point of an arc.
#[derive(Debug, Clone, Copy)]
struct ArcPoint {
    delay: f64,
    out_slew: f64,
    energy: f64,
}

/// What one scheduled per-cell job produced.
#[derive(Debug)]
enum CellWork {
    /// Restored intact from a checkpoint (no simulation spent).
    Restored(Cell),
    /// Characterized this run, with the attempts spent on the ladder.
    Done(Cell, u32),
    /// The retry ladder was exhausted; carries attempts and the final error.
    Exhausted(u32, CellError),
}

impl Characterizer {
    /// Bind the engine to model cards and a configuration.
    #[must_use]
    pub fn new(nfet: &ModelCard, pfet: &ModelCard, cfg: CharConfig) -> Self {
        Self {
            nfet: nfet.clone(),
            pfet: pfet.clone(),
            cfg,
            generation: 0,
            shed_checkpoints: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Tag this engine as re-characterization generation `generation`
    /// (0 = the first pass). Transient `corrupt=` faults fire only at
    /// generation 0, so the audit firewall's targeted repair pass provably
    /// produces clean cells; `corrupt=sticky` keeps firing across
    /// generations to model persistent corruption that repair cannot fix.
    #[must_use]
    pub fn with_generation(mut self, generation: u32) -> Self {
        self.generation = generation;
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CharConfig {
        &self.cfg
    }

    /// Characterize one cell into its library model.
    ///
    /// # Errors
    ///
    /// [`CellError::Spice`] when a deck fails to converge,
    /// [`CellError::Measurement`] when a waveform never crosses its
    /// thresholds, [`CellError::Liberty`] on malformed table assembly.
    pub fn characterize_cell(&self, cell: &CellNetlist) -> Result<Cell> {
        self.characterize_cell_at(cell, &RecoveryLevel::BASELINE)
    }

    /// Characterize one cell with explicit recovery-rung settings.
    fn characterize_cell_at(&self, cell: &CellNetlist, lv: &RecoveryLevel) -> Result<Cell> {
        let mut arcs = Vec::new();
        let mut power_arcs = Vec::new();
        if cell.ff.is_some() {
            self.characterize_sequential(cell, lv, &mut arcs, &mut power_arcs)?;
        } else if !cell.is_tie() {
            self.characterize_combinational(cell, lv, &mut arcs, &mut power_arcs)?;
        }
        let leakage_states = self.measure_leakage(cell, lv)?;
        let pins = self.build_pins(cell);
        Ok(Cell {
            name: cell.name.clone(),
            area: cell.area(),
            pins,
            arcs,
            power_arcs,
            leakage_states,
            ff: cell.ff.clone(),
            drive: cell.drive,
        })
    }

    /// Characterize one cell, climbing the recovery ladder on retryable
    /// failures (solver non-convergence, measurement windows too short) up
    /// to `cfg.max_attempts` tries. Returns the outcome together with the
    /// number of attempts spent.
    pub fn characterize_cell_recovering(&self, cell: &CellNetlist) -> (Result<Cell>, u32) {
        let ladder = RecoveryLevel::ladder();
        let max_attempts = self.cfg.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..max_attempts {
            let lv = &ladder[attempt.min(ladder.len() - 1)];
            match self.characterize_cell_at(cell, lv) {
                Ok(c) => return (Ok(c), attempt as u32 + 1),
                Err(e) if retryable(&e) => {
                    if self.cfg.progress {
                        eprintln!(
                            "[char {:>5.1}K] {} attempt {} failed, escalating: {e}",
                            self.cfg.temp,
                            cell.name,
                            attempt + 1
                        );
                    }
                    last_err = Some(e);
                }
                Err(e) => return (Err(e), attempt as u32 + 1),
            }
        }
        (
            Err(last_err.expect("at least one attempt ran")),
            max_attempts as u32,
        )
    }

    /// Characterize a whole cell set into a library corner, fanning the
    /// per-cell work out over `CharConfig::jobs` workers.
    ///
    /// # Errors
    ///
    /// Propagates the first per-cell failure in cell order (after that cell
    /// exhausts its retry ladder). Use
    /// [`Characterizer::characterize_library_robust`] for skip-and-continue
    /// semantics with a structured report.
    pub fn characterize_library(&self, name: &str, cells: &[CellNetlist]) -> Result<Library> {
        let mut lib = Library::new(name, self.cfg.temp, self.cfg.vdd);
        for work in self.process_cells(cells, None) {
            match work {
                CellWork::Restored(c) | CellWork::Done(c, _) => lib.add_cell(c),
                CellWork::Exhausted(_, e) => return Err(e),
            }
        }
        Ok(lib)
    }

    /// Characterize a cell set with graceful degradation: every cell gets
    /// the retry ladder; cells that exhaust it are derated from their
    /// nearest characterized drive-strength sibling or, failing that,
    /// skipped. Nothing aborts the corner — the returned [`CharReport`]
    /// records each cell's outcome, attempts, and fault cause, and the
    /// caller decides whether achieved coverage is acceptable.
    ///
    /// When `checkpoint` is given, finished cells are persisted immediately
    /// and cells with intact checkpoint entries are restored without
    /// re-simulation (the resume path after a crash or interrupt).
    #[must_use]
    pub fn characterize_library_robust(
        &self,
        name: &str,
        cells: &[CellNetlist],
        checkpoint: Option<&CheckpointStore>,
    ) -> (Library, CharReport) {
        let works = self.process_cells(cells, checkpoint);
        // Merge in cell order regardless of which worker finished when, so
        // the library's cell order — and therefore its serialized bytes —
        // are identical at any job count, and identical to the pre-parallel
        // serial engine.
        let mut lib = Library::new(name, self.cfg.temp, self.cfg.vdd);
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; cells.len()];
        let mut exhausted: Vec<(usize, u32, String)> = Vec::new();
        for (i, work) in works.into_iter().enumerate() {
            let cell = &cells[i];
            match work {
                CellWork::Restored(c) => {
                    lib.add_cell(c);
                    outcomes[i] = Some(CellOutcome {
                        name: cell.name.clone(),
                        status: CellStatus::Resumed,
                        attempts: 0,
                        fault: None,
                        derated_from: None,
                    });
                }
                CellWork::Done(c, attempts) => {
                    lib.add_cell(c);
                    outcomes[i] = Some(CellOutcome {
                        name: cell.name.clone(),
                        status: CellStatus::Characterized,
                        attempts,
                        fault: None,
                        derated_from: None,
                    });
                }
                CellWork::Exhausted(attempts, e) => exhausted.push((i, attempts, e.to_string())),
            }
        }
        // Degradation pass: stand in for exhausted cells with a model
        // scaled from the nearest characterized drive sibling. Runs on the
        // calling thread, in cell order, over the already-merged library —
        // donor selection is therefore independent of scheduling too.
        for (i, attempts, fault_msg) in exhausted {
            let cell = &cells[i];
            let (status, derated_from) = match derate_from_sibling(&lib, cells, cell) {
                Some((derated, sibling)) => {
                    eprintln!(
                        "warning: {} failed characterization; derating from {sibling}",
                        cell.name
                    );
                    lib.add_cell(derated);
                    (CellStatus::Derated, Some(sibling))
                }
                None => {
                    eprintln!(
                        "warning: {} failed characterization and has no usable sibling; skipped",
                        cell.name
                    );
                    (CellStatus::Failed, None)
                }
            };
            outcomes[i] = Some(CellOutcome {
                name: cell.name.clone(),
                status,
                attempts,
                fault: Some(fault_msg),
                derated_from,
            });
        }
        let mut report = CharReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every cell received an outcome"))
                .collect(),
            ..CharReport::default()
        };
        // Canonical order: reports compare equal whenever the per-cell
        // decisions match, however the work was scheduled or requested.
        report.sort_by_name();
        // Bound the quarantine graveyard: keep the newest few corrupt
        // files per cell as evidence, drop the rest, and surface the count
        // so operators see that pruning happened.
        if let Some(store) = checkpoint {
            report.quarantined_pruned = store.prune_quarantined(QUARANTINE_KEEP);
            report.stale_tmp_reaped = store.reaped_tmp();
            // Surface the open-time scrub only when it found damage, and
            // the shed count only when the disk filled up — clean runs
            // keep their pre-durability-work bytes.
            if !store.scrub_report().is_clean() {
                report.scrub = Some(store.scrub_report().clone());
            }
            report.checkpoints_shed = self.shed_checkpoints.load(Ordering::Relaxed) as usize;
        }
        (lib, report)
    }

    /// Process one cell: restore it from the checkpoint if possible,
    /// otherwise characterize it up the recovery ladder and persist the
    /// result. Sets the fault context first, so with an injector installed
    /// the cell's fault schedule depends only on (plan, cell name) — the
    /// per-worker determinism contract of the parallel scheduler.
    fn process_cell(&self, cell: &CellNetlist, checkpoint: Option<&CheckpointStore>) -> CellWork {
        fault::set_context(&cell.name);
        // Clear the kernel's warm-start memo at the cell boundary: a cell's
        // solves must not depend on which cells ran before it on this
        // thread, or jobs-1 and jobs-N runs could diverge.
        sparse::reset_solve_context();
        if let Some(store) = checkpoint {
            if let Some(restored) = store.load(&cell.name) {
                return CellWork::Restored(restored);
            }
        }
        let (result, attempts) = self.characterize_cell_recovering(cell);
        match result {
            Ok(c) => {
                let c = self.apply_corruptions(c);
                if let Some(store) = checkpoint {
                    if self.shed_checkpoints.load(Ordering::Relaxed) > 0 {
                        // The disk already filled up this run: don't keep
                        // hammering a full volume, just count the shed.
                        self.shed_checkpoints.fetch_add(1, Ordering::Relaxed);
                    } else if let Err(e) = store.store(&c) {
                        if e.is_no_space() {
                            self.shed_checkpoints.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "warning: checkpoint store is out of disk space; \
                                 shedding checkpoint writes and continuing ({e})"
                            );
                        } else {
                            eprintln!("warning: checkpoint write for {} failed: {e}", cell.name);
                        }
                    }
                }
                CellWork::Done(c, attempts)
            }
            Err(e) => CellWork::Exhausted(attempts, e),
        }
    }

    /// Run [`Characterizer::process_cell`] over the whole set on
    /// `CharConfig::jobs` workers ([`sched::map`]) and return the results
    /// in cell order.
    fn process_cells(
        &self,
        cells: &[CellNetlist],
        checkpoint: Option<&CheckpointStore>,
    ) -> Vec<CellWork> {
        let done = AtomicUsize::new(0);
        sched::map(cells.len(), self.cfg.effective_jobs(), |i| {
            self.progress_line(&done, cells.len(), &cells[i].name);
            self.process_cell(&cells[i], checkpoint)
        })
    }

    /// Apply any planned `corrupt=` fault injections to a freshly
    /// characterized cell: plausible-but-wrong values that pass
    /// construction-time validation and must be caught by the audit
    /// firewall downstream. Corruption lands *before* the checkpoint
    /// write, so a corrupted checkpoint faithfully models silent data
    /// corruption at rest; checkpoint-*restored* cells are never touched,
    /// so targeted re-characterization after `CheckpointStore::remove`
    /// repairs the offender while clean cells resume without simulation.
    fn apply_corruptions(&self, mut cell: Cell) -> Cell {
        use cryo_spice::fault::CorruptKind;
        let salt = format!("{}@{}", cell.name, self.cfg.temp as u32);
        if fault::should_corrupt(CorruptKind::Table, &salt, self.generation) {
            corrupt_one_delay_entry(&mut cell, &salt);
        }
        // Uniformly scaled cold-corner delays: each library still passes
        // its own per-table audit (positive, finite, monotone), so only
        // the cross-corner band check can see this one. Gate on the
        // temperature first so the warm corner never spends fault budget.
        if self.cfg.temp < 150.0
            && fault::should_corrupt(CorruptKind::Delay, &salt, self.generation)
        {
            for arc in &mut cell.arcs {
                if matches!(arc.kind, ArcKind::Combinational | ArcKind::ClockToQ) {
                    arc.cell_rise = arc.cell_rise.scaled(2.5);
                    arc.cell_fall = arc.cell_fall.scaled(2.5);
                }
            }
        }
        cell
    }

    fn progress_line(&self, done: &AtomicUsize, total: usize, name: &str) {
        let i = done.fetch_add(1, Ordering::Relaxed);
        if self.cfg.progress {
            eprintln!(
                "[char {:>5.1}K] {:>3}/{} {}",
                self.cfg.temp,
                i + 1,
                total,
                name
            );
        }
    }

    // ------------------------------------------------------------------
    // Circuit construction
    // ------------------------------------------------------------------

    /// Build the characterization deck: supplies, input sources, devices,
    /// wire parasitics, and an optional load on `loaded_output`.
    fn build_circuit(
        &self,
        cell: &CellNetlist,
        input_sources: &[(String, Source)],
        loaded_output: Option<(&str, f64)>,
    ) -> (Circuit, usize) {
        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let vdd_branch = ckt.vsource("VDD", vdd_node, GROUND, Source::dc(self.cfg.vdd));
        for (pin, source) in input_sources {
            let node = ckt.node(pin);
            ckt.vsource(&format!("V{pin}"), node, GROUND, source.clone());
        }
        for t in &cell.transistors {
            let card = match t.polarity {
                cryo_device::Polarity::N => &self.nfet,
                cryo_device::Polarity::P => &self.pfet,
            };
            let d = ckt.node(&t.d);
            let g = ckt.node(&t.g);
            let s = ckt.node(&t.s);
            ckt.finfet(&t.name, d, g, s, FinFet::new(card, self.cfg.temp, t.nfin));
        }
        for node in cell.internal_nodes() {
            let cap = cell.wire_cap(&node);
            if cap > 0.0 {
                let n = ckt.node(&node);
                ckt.capacitor(&format!("CW_{node}"), n, GROUND, cap);
            }
        }
        for out in &cell.outputs {
            let cap = cell.wire_cap(out);
            if cap > 0.0 {
                let n = ckt.node(out);
                ckt.capacitor(&format!("CW_{out}"), n, GROUND, cap);
            }
        }
        if let Some((out, cap)) = loaded_output {
            let n = ckt.node(out);
            ckt.capacitor("CLOAD", n, GROUND, cap);
        }
        (ckt, vdd_branch)
    }

    /// Analysis window for a given input slew and load on a cell; the
    /// recovery rung stretches the settling estimate so slow arcs that
    /// missed their thresholds get observed to completion.
    fn window(&self, slew: f64, load: f64, drive: u32, lv: &RecoveryLevel) -> (f64, f64) {
        let t0 = 20e-12;
        // Settling estimate: load swing at a conservative drive current.
        let drive_current = 2.5e-5 * f64::from(drive);
        let settle = 60e-12 + 8.0 * load * self.cfg.vdd / drive_current;
        (t0, t0 + (slew + settle) * lv.window_scale)
    }

    // ------------------------------------------------------------------
    // Combinational arcs
    // ------------------------------------------------------------------

    fn characterize_combinational(
        &self,
        cell: &CellNetlist,
        lv: &RecoveryLevel,
        arcs: &mut Vec<TimingArc>,
        power_arcs: &mut Vec<PowerArc>,
    ) -> Result<()> {
        for out in &cell.outputs {
            let f = &cell.functions[out];
            for (bit, input) in f.inputs().iter().enumerate() {
                if !f.depends_on(bit) {
                    continue;
                }
                let Some(state) = sensitizing_state(f, bit) else {
                    continue;
                };
                let sense = match f.unateness(bit) {
                    Some(true) => TimingSense::PositiveUnate,
                    Some(false) => TimingSense::NegativeUnate,
                    None => TimingSense::NonUnate,
                };
                // Local polarity at the chosen state: does the output follow
                // or oppose this input?
                let local_positive = f.eval(state | (1 << bit));
                let loads = self.cfg.loads_for(cell.drive);
                let mut rise_delay = Vec::new();
                let mut rise_tran = Vec::new();
                let mut rise_energy = Vec::new();
                let mut fall_delay = Vec::new();
                let mut fall_tran = Vec::new();
                let mut fall_energy = Vec::new();
                for &slew in &self.cfg.slews {
                    for &load in &loads {
                        // Output rise.
                        let p = self.measure_combinational_point(
                            cell,
                            f,
                            input,
                            bit,
                            state,
                            local_positive,
                            true,
                            slew,
                            load,
                            out,
                            lv,
                        )?;
                        rise_delay.push(p.delay);
                        rise_tran.push(p.out_slew);
                        rise_energy.push(p.energy);
                        // Output fall.
                        let p = self.measure_combinational_point(
                            cell,
                            f,
                            input,
                            bit,
                            state,
                            local_positive,
                            false,
                            slew,
                            load,
                            out,
                            lv,
                        )?;
                        fall_delay.push(p.delay);
                        fall_tran.push(p.out_slew);
                        fall_energy.push(p.energy);
                    }
                }
                let table = |vals: Vec<f64>| -> Result<Lut2> {
                    Lut2::new(self.cfg.slews.clone(), loads.clone(), vals).map_err(CellError::from)
                };
                arcs.push(TimingArc {
                    related_pin: input.clone(),
                    pin: out.clone(),
                    kind: ArcKind::Combinational,
                    sense,
                    cell_rise: table(rise_delay)?,
                    cell_fall: table(fall_delay)?,
                    rise_transition: table(rise_tran)?,
                    fall_transition: table(fall_tran)?,
                    sigma: None,
                });
                power_arcs.push(PowerArc {
                    related_pin: input.clone(),
                    pin: out.clone(),
                    rise_energy: table(rise_energy)?,
                    fall_energy: table(fall_energy)?,
                });
            }
        }
        Ok(())
    }

    /// Simulate one (arc, edge, slew, load) combination and extract the
    /// measurements.
    #[allow(clippy::too_many_arguments)]
    fn measure_combinational_point(
        &self,
        cell: &CellNetlist,
        f: &LogicFunction,
        input: &str,
        bit: usize,
        state: u16,
        local_positive: bool,
        output_rises: bool,
        slew: f64,
        load: f64,
        out: &str,
        lv: &RecoveryLevel,
    ) -> Result<ArcPoint> {
        let vdd = self.cfg.vdd;
        // Input edge direction that produces the requested output edge.
        let input_rises = output_rises == local_positive;
        let (t0, tstop) = self.window(slew, load, cell.drive, lv);
        // The measured slew axis is 20–80 %; the source ramp spans the full
        // swing in slew / 0.6 seconds so its 20–80 % time equals `slew`.
        let ramp_time = slew / 0.6;
        let mut sources: Vec<(String, Source)> = Vec::new();
        for (i, name) in f.inputs().iter().enumerate() {
            if i == bit {
                let (v_from, v_to) = if input_rises { (0.0, vdd) } else { (vdd, 0.0) };
                sources.push((name.clone(), Source::ramp(v_from, v_to, t0, ramp_time)));
            } else {
                let level = if state & (1 << i) != 0 { vdd } else { 0.0 };
                sources.push((name.clone(), Source::dc(level)));
            }
        }
        // Side inputs of *other* outputs' functions (e.g. the unused select
        // state) are already covered: `f.inputs()` spans the cell inputs
        // used by this output; any remaining cell inputs idle at 0.
        for name in &cell.inputs {
            if !sources.iter().any(|(n, _)| n == name) {
                sources.push((name.clone(), Source::dc(0.0)));
            }
        }
        let (ckt, vdd_branch) = self.build_circuit(cell, &sources, Some((out, load)));
        let res =
            transient(&ckt, &lv.tran(tstop, self.cfg.steps)).map_err(|e| CellError::Spice {
                cell: cell.name.clone(),
                what: "timing transient",
                source: e,
            })?;
        let in_node = ckt.find_node(input).expect("input node exists");
        let out_node = ckt.find_node(out).expect("output node exists");
        let vin = res.voltage(in_node);
        let vout = res.voltage(out_node);
        let meas_err = |what: &'static str| CellError::Measurement {
            cell: cell.name.clone(),
            arc: format!("{input}->{out}"),
            what,
        };
        let t_in = vin
            .cross(vdd / 2.0, input_rises, 0.0)
            .ok_or_else(|| meas_err("input never crossed 50 %"))?;
        let t_out = vout
            .cross(vdd / 2.0, output_rises, t0)
            .ok_or_else(|| meas_err("output never crossed 50 %"))?;
        let (vs, ve) = if output_rises { (0.0, vdd) } else { (vdd, 0.0) };
        let out_slew = vout
            .transition_time(vs, ve, 0.2, 0.8, t0)
            .ok_or_else(|| meas_err("output transition incomplete"))?;
        // Supply energy over the switching window, minus the leakage
        // baseline, minus the external load charge for rising outputs.
        let i_vdd = res.source_current(vdd_branch);
        let e_supply = -vdd * i_vdd.integral();
        let i_leak0 = i_vdd.value_at(0.0);
        let e_leak = -vdd * i_leak0 * (tstop - 0.0);
        let e_load = if output_rises { load * vdd * vdd } else { 0.0 };
        let energy = (e_supply - e_leak - e_load).max(0.0);
        Ok(ArcPoint {
            delay: t_out - t_in,
            out_slew,
            energy,
        })
    }

    // ------------------------------------------------------------------
    // Sequential arcs
    // ------------------------------------------------------------------

    fn characterize_sequential(
        &self,
        cell: &CellNetlist,
        lv: &RecoveryLevel,
        arcs: &mut Vec<TimingArc>,
        power_arcs: &mut Vec<PowerArc>,
    ) -> Result<()> {
        let ff = cell.ff.as_ref().expect("sequential cell");
        let clk = ff.clocked_on.clone();
        let q = cell.outputs[0].clone();
        let loads = self.cfg.loads_for(cell.drive);
        let mut rise_delay = Vec::new();
        let mut rise_tran = Vec::new();
        let mut rise_energy = Vec::new();
        let mut fall_delay = Vec::new();
        let mut fall_tran = Vec::new();
        let mut fall_energy = Vec::new();
        for &slew in &self.cfg.slews {
            for &load in &loads {
                let p = self.measure_clk_to_q(cell, ff, true, slew, load, lv)?;
                rise_delay.push(p.delay);
                rise_tran.push(p.out_slew);
                rise_energy.push(p.energy);
                let p = self.measure_clk_to_q(cell, ff, false, slew, load, lv)?;
                fall_delay.push(p.delay);
                fall_tran.push(p.out_slew);
                fall_energy.push(p.energy);
            }
        }
        let table = |vals: Vec<f64>| -> Result<Lut2> {
            Lut2::new(self.cfg.slews.clone(), loads.clone(), vals).map_err(CellError::from)
        };
        arcs.push(TimingArc {
            related_pin: clk.clone(),
            pin: q.clone(),
            kind: ArcKind::ClockToQ,
            sense: TimingSense::NonUnate,
            cell_rise: table(rise_delay)?,
            cell_fall: table(fall_delay)?,
            rise_transition: table(rise_tran)?,
            fall_transition: table(fall_tran)?,
            sigma: None,
        });
        power_arcs.push(PowerArc {
            related_pin: clk.clone(),
            pin: q.clone(),
            rise_energy: table(rise_energy)?,
            fall_energy: table(fall_energy)?,
        });
        // Setup/hold at the centre of the grid, published as constants.
        let setup = self.bisect_constraint(cell, ff, true, lv)?;
        let hold = self.bisect_constraint(cell, ff, false, lv)?;
        arcs.push(TimingArc {
            related_pin: clk.clone(),
            pin: ff.next_state.clone(),
            kind: ArcKind::Setup,
            sense: TimingSense::NonUnate,
            cell_rise: Lut2::constant(setup),
            cell_fall: Lut2::constant(setup),
            rise_transition: Lut2::constant(0.0),
            fall_transition: Lut2::constant(0.0),
            sigma: None,
        });
        arcs.push(TimingArc {
            related_pin: clk,
            pin: ff.next_state.clone(),
            kind: ArcKind::Hold,
            sense: TimingSense::NonUnate,
            cell_rise: Lut2::constant(hold),
            cell_fall: Lut2::constant(hold),
            rise_transition: Lut2::constant(0.0),
            fall_transition: Lut2::constant(0.0),
            sigma: None,
        });
        Ok(())
    }

    /// Clock-to-Q measurement.
    ///
    /// A priming clock pulse first captures the *opposite* value so that Q
    /// is guaranteed to transition on the measured edge (the slave latch's
    /// DC state is otherwise arbitrary): D = !target through edge 1, then
    /// D switches to the target and the measured edge launches it.
    fn measure_clk_to_q(
        &self,
        cell: &CellNetlist,
        ff: &FfSpec,
        q_rises: bool,
        slew: f64,
        load: f64,
        lv: &RecoveryLevel,
    ) -> Result<ArcPoint> {
        let vdd = self.cfg.vdd;
        let ramp_fast = 10e-12;
        let t_prime = 60e-12; // priming edge
        let t_clk_fall = t_prime + 160e-12;
        let t_d_change = t_prime + 320e-12;
        let t_edge = t_prime + 480e-12;
        let ramp_time = slew / 0.6;
        let drive_current = 2.5e-5 * f64::from(cell.drive);
        let settle = 80e-12 + 8.0 * load * vdd / drive_current + slew;
        let window_end = t_edge + ramp_time + settle * lv.window_scale;
        let (d_from, d_to) = if q_rises { (0.0, vdd) } else { (vdd, 0.0) };
        let clk = Source::Pwl(vec![
            (0.0, 0.0),
            (t_prime, 0.0),
            (t_prime + ramp_fast, vdd),
            (t_clk_fall, vdd),
            (t_clk_fall + ramp_fast, 0.0),
            (t_edge, 0.0),
            (t_edge + ramp_time, vdd),
        ]);
        let d_src = Source::ramp(d_from, d_to, t_d_change, 20e-12);
        let mut sources: Vec<(String, Source)> =
            vec![(ff.clocked_on.clone(), clk), (ff.next_state.clone(), d_src)];
        if let Some(rn) = &ff.clear {
            sources.push((rn.clone(), Source::dc(vdd)));
        }
        let q = &cell.outputs[0];
        let (ckt, vdd_branch) = self.build_circuit(cell, &sources, Some((q, load)));
        let res = transient(&ckt, &lv.tran(window_end, 2 * self.cfg.steps)).map_err(|e| {
            CellError::Spice {
                cell: cell.name.clone(),
                what: "clk-to-q transient",
                source: e,
            }
        })?;
        let clk_node = ckt.find_node(&ff.clocked_on).expect("clk node");
        let q_node = ckt.find_node(q).expect("q node");
        let vclk = res.voltage(clk_node);
        let vq = res.voltage(q_node);
        let meas_err = |what: &'static str| CellError::Measurement {
            cell: cell.name.clone(),
            arc: format!("{}->{}", ff.clocked_on, q),
            what,
        };
        let t_clk = vclk
            .cross(vdd / 2.0, true, t_edge - 10e-12)
            .ok_or_else(|| meas_err("measured clock edge missing"))?;
        let t_q = vq
            .cross(vdd / 2.0, q_rises, t_edge)
            .ok_or_else(|| meas_err("Q never crossed 50 %"))?;
        let (vs, ve) = if q_rises { (0.0, vdd) } else { (vdd, 0.0) };
        let out_slew = vq
            .transition_time(vs, ve, 0.2, 0.8, t_edge)
            .ok_or_else(|| meas_err("Q transition incomplete"))?;
        // Energy window restricted to the measured edge (the priming pulse
        // would otherwise pollute the integral).
        let i_vdd = res.source_current(vdd_branch);
        let t_base = t_edge - 40e-12;
        let e_supply = -vdd * i_vdd.integral_between(t_base, window_end);
        let e_leak = -vdd * i_vdd.value_at(t_base) * (window_end - t_base);
        let e_load = if q_rises { load * vdd * vdd } else { 0.0 };
        Ok(ArcPoint {
            delay: t_q - t_clk,
            out_slew,
            energy: (e_supply - e_leak - e_load).max(0.0),
        })
    }

    /// Bisect the setup (`setup = true`) or hold margin at the grid centre.
    fn bisect_constraint(
        &self,
        cell: &CellNetlist,
        ff: &FfSpec,
        setup: bool,
        lv: &RecoveryLevel,
    ) -> Result<f64> {
        let vdd = self.cfg.vdd;
        let slew = self.cfg.slews[self.cfg.slews.len() / 2];
        let load = self.cfg.loads_for(cell.drive)[self.cfg.loads_x1.len() / 2];
        let ramp_time = slew / 0.6;
        let t_edge = 560e-12;
        let window_end = t_edge + 460e-12 * lv.window_scale;
        let q = cell.outputs[0].clone();

        // Captured correctly = Q reads the pre-edge D value at the end. A
        // priming pulse first captures 0 so the slave's arbitrary DC state
        // cannot fake a pass.
        let ramp_fast = 10e-12;
        let t_prime = 60e-12;
        let t_clk_fall = t_prime + 160e-12;
        let capture_ok = |offset: f64| -> Result<bool> {
            // Setup: D rises `offset` before the edge (target Q = 1, D was 0).
            // Hold: D rises well before the edge and falls `offset` after it
            // (target Q = 1 still captured).
            let d_source = if setup {
                Source::ramp(0.0, vdd, t_edge - offset, ramp_time)
            } else {
                Source::Pwl(vec![
                    (0.0, 0.0),
                    (t_clk_fall + 60e-12, 0.0),
                    (t_clk_fall + 80e-12, vdd),
                    (t_edge + offset, vdd),
                    (t_edge + offset + ramp_time, 0.0),
                ])
            };
            let clk = Source::Pwl(vec![
                (0.0, 0.0),
                (t_prime, 0.0),
                (t_prime + ramp_fast, vdd),
                (t_clk_fall, vdd),
                (t_clk_fall + ramp_fast, 0.0),
                (t_edge, 0.0),
                (t_edge + ramp_time, vdd),
            ]);
            let mut sources: Vec<(String, Source)> = vec![
                (ff.clocked_on.clone(), clk),
                (ff.next_state.clone(), d_source),
            ];
            if let Some(rn) = &ff.clear {
                sources.push((rn.clone(), Source::dc(vdd)));
            }
            let (ckt, _) = self.build_circuit(cell, &sources, Some((&q, load)));
            let res = transient(&ckt, &lv.tran(window_end, 2 * self.cfg.steps)).map_err(|e| {
                CellError::Spice {
                    cell: cell.name.clone(),
                    what: "constraint transient",
                    source: e,
                }
            })?;
            let q_node = ckt.find_node(&q).expect("q node");
            Ok(res.voltage(q_node).last() > vdd / 2.0)
        };

        // Bisection over the offset; the pass region is large offsets.
        let mut lo = 0.0;
        let mut hi = 240e-12;
        if !capture_ok(hi)? {
            // Pathological cell: publish the whole window as the margin.
            return Ok(hi);
        }
        for _ in 0..7 {
            let mid = 0.5 * (lo + hi);
            if capture_ok(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    // ------------------------------------------------------------------
    // Leakage and pins
    // ------------------------------------------------------------------

    /// Leakage power per static input state.
    ///
    /// Combinational cells use a DC operating point. Sequential cells are
    /// settled through a clock transition first: the plain DC solve can
    /// land on the *metastable* equilibrium of a keeper loop (both keeper
    /// inverters half-on), which reads as milliwatt-scale crowbar current
    /// instead of leakage.
    fn measure_leakage(&self, cell: &CellNetlist, lv: &RecoveryLevel) -> Result<Vec<(u16, f64)>> {
        let vdd = self.cfg.vdd;
        let mut pins: Vec<String> = cell.inputs.clone();
        if let Some(clk) = &cell.clock {
            pins.push(clk.clone());
        }
        let n = pins.len().min(5);
        let mut out = Vec::new();
        for state in 0..(1u16 << n) {
            let level_of = |i: usize| if state & (1 << i) != 0 { vdd } else { 0.0 };
            let power = if cell.ff.is_some() {
                let clk_name = cell.clock.as_deref().unwrap_or("CLK");
                let sources: Vec<(String, Source)> = pins
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        if p == clk_name {
                            // Arrive at the requested clock level through a
                            // real transition so the latches settle.
                            let level = level_of(i);
                            let other = vdd - level;
                            (
                                p.clone(),
                                Source::Pwl(vec![(0.0, other), (300e-12, other), (320e-12, level)]),
                            )
                        } else {
                            (p.clone(), Source::dc(level_of(i)))
                        }
                    })
                    .collect();
                let (ckt, vdd_branch) = self.build_circuit(cell, &sources, None);
                let tstop = 1.2e-9 * lv.window_scale;
                let res = transient(&ckt, &lv.tran(tstop, self.cfg.steps)).map_err(|e| {
                    CellError::Spice {
                        cell: cell.name.clone(),
                        what: "leakage settle transient",
                        source: e,
                    }
                })?;
                // Trapezoidal integration rings (undamped ±i alternation)
                // after sharp edges; the window average cancels it and
                // leaves the true DC draw.
                let i = res.source_current(vdd_branch);
                let (t1, t2) = (tstop - 0.4e-9, tstop);
                let i_avg = i.integral_between(t1, t2) / (t2 - t1);
                (-i_avg * vdd).max(0.0)
            } else {
                let sources: Vec<(String, Source)> = pins
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.clone(), Source::dc(level_of(i))))
                    .collect();
                let (ckt, vdd_branch) = self.build_circuit(cell, &sources, None);
                let op = dc_operating_point_with(&ckt, lv.gmin).map_err(|e| CellError::Spice {
                    cell: cell.name.clone(),
                    what: "leakage DC",
                    source: e,
                })?;
                (-op.branch_current(vdd_branch) * vdd).max(0.0)
            };
            out.push((state, power));
        }
        Ok(out)
    }

    /// Pin models: analytic input capacitance (device gates + wire) and
    /// output functions.
    fn build_pins(&self, cell: &CellNetlist) -> Vec<Pin> {
        let mut pins = Vec::new();
        let mut input_like: Vec<(&String, bool)> = cell.inputs.iter().map(|p| (p, false)).collect();
        if let Some(clk) = &cell.clock {
            input_like.push((clk, true));
        }
        for (name, is_clock) in input_like {
            let mut cap = cell.wire_cap(name);
            for t in &cell.transistors {
                if &t.g == name {
                    let card = match t.polarity {
                        cryo_device::Polarity::N => &self.nfet,
                        cryo_device::Polarity::P => &self.pfet,
                    };
                    cap += FinFet::new(card, self.cfg.temp, t.nfin).cgg();
                }
            }
            let mut pin = Pin::input(name, cap);
            pin.is_clock = is_clock;
            pins.push(pin);
        }
        for out in &cell.outputs {
            pins.push(Pin::output(out, cell.functions[out].clone()));
        }
        pins
    }
}

/// Sign-flip one delay entry of `cell`, picked deterministically from the
/// installed fault plan. The negative-but-finite value survives [`Lut2`]
/// construction — the classic silent-data-corruption shape — and is caught
/// by the audit firewall's `delay_positive` invariant at the exact
/// `[row, col]` it landed on.
fn corrupt_one_delay_entry(cell: &mut Cell, salt: &str) {
    let total: usize = cell
        .arcs
        .iter()
        .filter(|a| matches!(a.kind, ArcKind::Combinational | ArcKind::ClockToQ))
        .map(|a| a.cell_rise.values().len() + a.cell_fall.values().len())
        .sum();
    if total == 0 {
        return;
    }
    let mut pick = fault::corrupt_pick(salt, total);
    for arc in &mut cell.arcs {
        if !matches!(arc.kind, ArcKind::Combinational | ArcKind::ClockToQ) {
            continue;
        }
        for t in [&mut arc.cell_rise, &mut arc.cell_fall] {
            let n = t.values().len();
            if pick < n {
                let mut vals = t.values().to_vec();
                vals[pick] = -vals[pick];
                if let Ok(flipped) = Lut2::new(t.index1().to_vec(), t.index2().to_vec(), vals) {
                    *t = flipped;
                }
                return;
            }
            pick -= n;
        }
    }
}

/// Family prefix of a drive-suffixed cell name: `INVx4` → `INVx`,
/// `NAND2x1` → `NAND2x`. Cells of the same family at different drive
/// strengths share this prefix.
fn family_prefix(name: &str) -> &str {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Build a stand-in model for `target` (which failed characterization) by
/// scaling its nearest characterized drive-strength sibling. Returns the
/// derated cell and the sibling's name, or `None` when no sibling of the
/// same family made it into the library.
///
/// The scaling assumes delay is a function of load-per-unit-drive: a cell
/// at drive `k` driving load `L` behaves like its sibling at drive `m`
/// driving `L·m/k`. Load axes, energies, leakage, pin capacitances, and
/// area therefore all scale by the drive ratio while delay/slew values
/// carry over unchanged.
fn derate_from_sibling(
    lib: &Library,
    cells: &[CellNetlist],
    target: &CellNetlist,
) -> Option<(Cell, String)> {
    let prefix = family_prefix(&target.name);
    let sibling = cells
        .iter()
        .filter(|c| c.name != target.name && family_prefix(&c.name) == prefix)
        .filter_map(|c| lib.cell(&c.name).ok())
        .min_by_key(|c| c.drive.abs_diff(target.drive))?;
    let ratio = f64::from(target.drive) / f64::from(sibling.drive);
    let scale_axis = |t: &Lut2| -> Option<Lut2> {
        Lut2::new(
            t.index1().to_vec(),
            t.index2().iter().map(|l| l * ratio).collect(),
            t.values().to_vec(),
        )
        .ok()
    };
    let scale_axis_and_values = |t: &Lut2| -> Option<Lut2> {
        Lut2::new(
            t.index1().to_vec(),
            t.index2().iter().map(|l| l * ratio).collect(),
            t.values().iter().map(|v| v * ratio).collect(),
        )
        .ok()
    };
    let mut derated = sibling.clone();
    derated.name = target.name.clone();
    derated.drive = target.drive;
    derated.area = sibling.area * ratio;
    for arc in &mut derated.arcs {
        arc.cell_rise = scale_axis(&arc.cell_rise)?;
        arc.cell_fall = scale_axis(&arc.cell_fall)?;
        arc.rise_transition = scale_axis(&arc.rise_transition)?;
        arc.fall_transition = scale_axis(&arc.fall_transition)?;
    }
    for arc in &mut derated.power_arcs {
        arc.rise_energy = scale_axis_and_values(&arc.rise_energy)?;
        arc.fall_energy = scale_axis_and_values(&arc.fall_energy)?;
    }
    for (_, leak) in &mut derated.leakage_states {
        *leak *= ratio;
    }
    for pin in &mut derated.pins {
        pin.capacitance *= ratio;
    }
    Some((derated, sibling.name.clone()))
}

/// Find the numerically smallest side-input assignment that sensitizes
/// `input` (the output toggles when the input toggles). Returns the full
/// assignment with the target input at 0.
fn sensitizing_state(f: &LogicFunction, input: usize) -> Option<u16> {
    let n = f.arity();
    (0..(1u16 << n))
        .filter(|k| k & (1 << input) == 0)
        .find(|&k| f.eval(k) != f.eval(k | (1 << input)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use cryo_device::Polarity;

    fn engine() -> Characterizer {
        Characterizer::new(
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
            CharConfig::fast(300.0),
        )
    }

    #[test]
    fn sensitizing_state_for_nand() {
        let f = LogicFunction::from_eval(&["A", "B"], |b| b & 3 != 3);
        // To sensitize A, B must be 1.
        assert_eq!(sensitizing_state(&f, 0), Some(0b10));
        assert_eq!(sensitizing_state(&f, 1), Some(0b01));
    }

    #[test]
    fn inverter_characterization_is_sane() {
        let cell = engine().characterize_cell(&topology::inverter(1)).unwrap();
        assert_eq!(cell.arcs.len(), 1);
        let arc = &cell.arcs[0];
        assert_eq!(arc.sense, TimingSense::NegativeUnate);
        // Delays are positive, finite, and increase with load.
        let d_small = arc.cell_rise.lookup(5e-12, 0.8e-15);
        let d_large = arc.cell_rise.lookup(5e-12, 12.8e-15);
        assert!(d_small > 0.0 && d_small < 100e-12, "d_small = {d_small:e}");
        assert!(d_large > d_small, "{d_large:e} vs {d_small:e}");
        // Input pin cap is sub-femtofarad but nonzero.
        let cap = cell.pin("A").unwrap().capacitance;
        assert!(cap > 0.1e-15 && cap < 5e-15, "cap = {cap:e}");
        // Leakage measured for both states.
        assert_eq!(cell.leakage_states.len(), 2);
        assert!(cell.average_leakage() > 0.0);
    }

    #[test]
    fn nand_has_one_arc_per_input() {
        let cell = engine().characterize_cell(&topology::nand(2, 1)).unwrap();
        assert_eq!(cell.arcs.len(), 2);
        assert_eq!(cell.power_arcs.len(), 2);
        for arc in &cell.arcs {
            assert_eq!(arc.sense, TimingSense::NegativeUnate);
            assert!(arc.cell_rise.lookup(5e-12, 1e-15) > 0.0);
        }
        // 4 leakage states for 2 inputs.
        assert_eq!(cell.leakage_states.len(), 4);
    }

    #[test]
    fn xor_is_non_unate() {
        let cell = engine().characterize_cell(&topology::xor2(1)).unwrap();
        assert!(cell.arcs.iter().all(|a| a.sense == TimingSense::NonUnate));
    }

    #[test]
    fn cryo_library_leaks_less_but_runs_similar_speed() {
        let cells = vec![topology::inverter(1), topology::nand(2, 1)];
        let lib300 = Characterizer::new(
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
            CharConfig::fast(300.0),
        )
        .characterize_library("t300", &cells)
        .unwrap();
        let lib10 = Characterizer::new(
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
            CharConfig::fast(10.0),
        )
        .characterize_library("t10", &cells)
        .unwrap();
        let s300 = lib300.stats();
        let s10 = lib10.stats();
        // Fig. 5's message: delay barely moves...
        let ratio = s10.mean_delay / s300.mean_delay;
        assert!(
            (0.85..1.35).contains(&ratio),
            "mean delay ratio 10K/300K = {ratio:.3}"
        );
        // ...while leakage collapses.
        assert!(
            s300.total_avg_leakage / s10.total_avg_leakage > 50.0,
            "leakage must collapse: {:.3e} -> {:.3e}",
            s300.total_avg_leakage,
            s10.total_avg_leakage
        );
    }

    #[test]
    fn tie_cells_characterize_without_arcs() {
        let cell = engine().characterize_cell(&topology::tiehi()).unwrap();
        assert!(cell.arcs.is_empty());
        assert_eq!(cell.leakage_states.len(), 1);
    }

    #[test]
    fn retry_ladder_recovers_from_a_transient_injection() {
        use cryo_spice::FaultPlan;
        let _g = fault::install_guard(FaultPlan {
            tran_no_convergence: 1.0,
            max_injections: Some(1),
            ..FaultPlan::new(11)
        });
        let (result, attempts) = engine().characterize_cell_recovering(&topology::inverter(1));
        assert!(result.is_ok(), "second attempt must succeed");
        assert_eq!(attempts, 2, "one injected failure, one clean retry");
    }

    #[test]
    fn exhausted_cell_is_derated_from_its_drive_sibling() {
        use cryo_spice::FaultPlan;
        let _g = fault::install_guard(FaultPlan {
            dc_no_convergence: 1.0,
            tran_no_convergence: 1.0,
            scope: Some("INVx2".into()),
            ..FaultPlan::new(5)
        });
        let cells = vec![topology::inverter(1), topology::inverter(2)];
        let (lib, report) = engine().characterize_library_robust("derate", &cells, None);
        assert_eq!(lib.len(), 2, "derated cell still lands in the library");
        assert!((report.coverage() - 1.0).abs() < 1e-12);
        let outcome = report.outcome("INVx2").unwrap();
        assert_eq!(outcome.status, CellStatus::Derated);
        assert_eq!(outcome.derated_from.as_deref(), Some("INVx1"));
        assert_eq!(outcome.attempts, 3, "full ladder was spent first");
        assert!(outcome.fault.as_deref().unwrap().contains("converge"));
        // The stand-in scales the sibling: double the drive means double
        // the load axis, area, input capacitance, and leakage.
        let x1 = lib.cell("INVx1").unwrap();
        let x2 = lib.cell("INVx2").unwrap();
        assert_eq!(x2.drive, 2);
        assert!((x2.area - 2.0 * x1.area).abs() < 1e-12);
        let d1 = x1.arcs[0].cell_rise.lookup(5e-12, 0.8e-15);
        let d2 = x2.arcs[0].cell_rise.lookup(5e-12, 1.6e-15);
        assert!(
            (d1 - d2).abs() < 1e-18,
            "delay at load-per-drive parity must carry over: {d1:e} vs {d2:e}"
        );
        assert!(
            (x2.average_leakage() - 2.0 * x1.average_leakage()).abs()
                < 1e-9 * x1.average_leakage().max(1e-30),
            "leakage scales with drive"
        );
    }

    #[test]
    fn unrecoverable_cell_without_sibling_is_skipped_not_fatal() {
        use cryo_spice::FaultPlan;
        let _g = fault::install_guard(FaultPlan {
            dc_no_convergence: 1.0,
            tran_no_convergence: 1.0,
            scope: Some("NAND2x1".into()),
            ..FaultPlan::new(5)
        });
        let cells = vec![topology::inverter(1), topology::nand(2, 1)];
        let (lib, report) = engine().characterize_library_robust("skip", &cells, None);
        assert_eq!(lib.len(), 1, "no NAND sibling exists to derate from");
        assert!((report.coverage() - 0.5).abs() < 1e-12);
        let outcome = report.outcome("NAND2x1").unwrap();
        assert_eq!(outcome.status, CellStatus::Failed);
        assert!(outcome.fault.is_some());
        assert!(report.outcome("INVx1").unwrap().in_library());
    }

    #[test]
    fn corrupt_table_flips_exactly_one_entry_and_repair_pass_is_clean() {
        use cryo_spice::FaultPlan;
        let _g = fault::install_guard(FaultPlan {
            corrupt_table: 1.0,
            ..FaultPlan::new(7)
        });
        let count_negative = |lib: &Library, name: &str| -> usize {
            lib.cell(name)
                .unwrap()
                .arcs
                .iter()
                .flat_map(|a| a.cell_rise.values().iter().chain(a.cell_fall.values()))
                .filter(|v| **v < 0.0)
                .count()
        };
        let cells = vec![topology::inverter(1)];
        let (lib, _) = engine().characterize_library_robust("corrupt", &cells, None);
        assert_eq!(
            count_negative(&lib, "INVx1"),
            1,
            "corrupt=table sign-flips exactly one delay entry"
        );
        // Generation 1 models the targeted repair pass: the transient
        // corruption no longer fires and the cell comes out clean.
        let (lib2, _) = engine()
            .with_generation(1)
            .characterize_library_robust("repair", &cells, None);
        assert_eq!(
            count_negative(&lib2, "INVx1"),
            0,
            "repair pass must be clean"
        );
    }

    #[test]
    fn corrupt_delay_scales_only_the_cold_corner() {
        use cryo_spice::FaultPlan;
        let plan = FaultPlan {
            corrupt_delay: 1.0,
            ..FaultPlan::new(9)
        };
        let cells = vec![topology::inverter(1)];
        let warm = Characterizer::new(
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
            CharConfig::fast(300.0),
        );
        let cold = Characterizer::new(
            &ModelCard::nominal(Polarity::N),
            &ModelCard::nominal(Polarity::P),
            CharConfig::fast(10.0),
        );
        let (clean_cold, _) = cold.characterize_library_robust("clean10", &cells, None);
        let _g = fault::install_guard(plan);
        let (lib300, _) = warm.characterize_library_robust("t300", &cells, None);
        let (lib10, _) = cold.characterize_library_robust("t10", &cells, None);
        let delay = |lib: &Library| {
            lib.cell("INVx1").unwrap().arcs[0]
                .cell_rise
                .lookup(5e-12, 0.8e-15)
        };
        let clean_warm_delay = delay(&lib300);
        let corrupted = delay(&lib10);
        let clean = delay(&clean_cold);
        assert!(
            (corrupted / clean - 2.5).abs() < 1e-9,
            "cold delays scaled by 2.5: {corrupted:e} vs {clean:e}"
        );
        // The warm corner is untouched — the corruption is only visible
        // cross-corner, which is exactly what the band audit checks.
        assert!(
            corrupted / clean_warm_delay > 2.0,
            "cross-corner ratio escapes the plausible band"
        );
    }

    #[test]
    fn family_prefix_strips_drive_suffix() {
        assert_eq!(family_prefix("INVx4"), "INVx");
        assert_eq!(family_prefix("NAND2x1"), "NAND2x");
        assert_eq!(family_prefix("TIEHI"), "TIEHI");
    }
}
