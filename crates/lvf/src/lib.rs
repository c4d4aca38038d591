#![warn(missing_docs)]
//! Monte-Carlo statistical characterization: sampled-die SPICE sweeps that
//! produce LVF-style variation tables next to every NLDM table.
//!
//! The engine fans N sampled dies per cell over the same work-stealing
//! scheduler the nominal characterizer uses, under the same determinism
//! contract: `jobs` is a pure throughput knob (jobs = 1 and jobs = 8 produce
//! byte-identical libraries), every die's SPICE stream is reseeded from
//! `(base_seed, cell, die)` alone, and per-cell moment checkpoints make a
//! killed run resume with zero re-simulated dies.
//!
//! The output is an ordinary [`cryo_liberty::Library`] whose timing arcs
//! carry [`cryo_liberty::ArcSigma`] variation tables (the per-entry Bessel
//! sample sigma across the die population) alongside the per-entry mean
//! tables, plus a [`McReport`] with per-arc pooled (mean, sigma, skew)
//! moments.

pub mod transfer;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cryo_cells::checkpoint::QUARANTINE_KEEP;
use cryo_cells::topology::CellNetlist;
use cryo_cells::{cache, sched, CellError, CharConfig, Characterizer, CheckpointStore};
use cryo_device::montecarlo::{sample_die, stats, VariationModel};
use cryo_device::ModelCard;
use cryo_liberty::{ArcSigma, Cell, Library, Lut2};
use cryo_spice::fault;
use cryo_spice::sparse;

type Result<T> = std::result::Result<T, CellError>;

/// Configuration for a Monte-Carlo characterization sweep.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Sampled dies per cell. Each die is a full characterization of the
    /// cell under independently perturbed device cards.
    pub dies: usize,
    /// Root of the per-die seed tree. The seed of die `d` of cell `c` is
    /// `base_seed ^ fnv1a(c) ^ d` — independent of job count, cell order,
    /// and which dies already ran.
    pub base_seed: u64,
    /// Per-die device-parameter spread.
    pub variation: VariationModel,
    /// Nominal characterization grid (temperature, vdd, slew/load axes,
    /// transient resolution, jobs).
    pub char_cfg: CharConfig,
}

impl McConfig {
    /// Monte-Carlo sweep over `dies` sampled dies on top of a nominal
    /// characterization config, with the default variation model.
    #[must_use]
    pub fn new(dies: usize, base_seed: u64, char_cfg: CharConfig) -> Self {
        Self {
            dies,
            base_seed,
            variation: VariationModel::default(),
            char_cfg,
        }
    }

    /// Deterministic seed for one sampled die of one cell.
    #[must_use]
    pub fn die_seed(&self, cell: &str, die: usize) -> u64 {
        self.base_seed ^ fault::fnv1a(cell.as_bytes()) ^ die as u64
    }
}

/// Cache key for a Monte-Carlo library: the nominal characterization key
/// (device cards + grid) extended with the die count, the seed, and the
/// variation model. Changing any of them re-simulates; the nominal
/// corner's own key never sees these knobs, so nominal artifacts stay
/// byte-identical whether or not MC runs.
///
/// # Errors
///
/// [`CellError::Cache`] when a model card fails to serialize.
pub fn mc_cache_key(
    nfet: &ModelCard,
    pfet: &ModelCard,
    cfg: &McConfig,
    cell_tag: &str,
) -> Result<String> {
    let nominal = cache::cache_key(nfet, pfet, &cfg.char_cfg, cell_tag)?;
    let v = &cfg.variation;
    let salt = format!(
        "{nominal}|mc|dies={}|seed={}|var={:e}/{:e}/{:e}/{:e}/{:e}",
        cfg.dies, cfg.base_seed, v.sigma_vth0, v.sigma_u0, v.sigma_rsw, v.sigma_t0, v.sigma_tvth
    );
    Ok(format!("{:016x}", fault::fnv1a(salt.as_bytes())))
}

/// Pooled distribution moments for one timing arc across the die
/// population: per-die mean delay summarized as (mean, sigma, skew).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArcMoments {
    /// Input pin whose transition launches the arc.
    pub related_pin: String,
    /// Output pin.
    pub pin: String,
    /// Mean of the per-die mean delay, seconds.
    pub mean_delay: f64,
    /// Bessel-corrected sample sigma of the per-die mean delay, seconds.
    pub sigma_delay: f64,
    /// Standardized sample skewness of the per-die mean delay
    /// (dimensionless; 0 for fewer than 3 dies).
    pub skew_delay: f64,
}

/// Per-cell moment checkpoint: everything the report needs that the LVF
/// cell itself does not carry, persisted next to the cell so a resumed run
/// reconstructs the full report without re-simulating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMoments {
    /// Cell name.
    pub cell: String,
    /// Die population size the moments were computed over.
    pub dies: usize,
    /// Per-arc pooled moments, in arc order.
    pub arcs: Vec<ArcMoments>,
}

/// Outcome of a Monte-Carlo library sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McReport {
    /// Dies per cell.
    pub dies: usize,
    /// Seed root.
    pub base_seed: u64,
    /// Per-cell pooled moments, in cell order.
    pub cells: Vec<CellMoments>,
    /// Cells restored from moment checkpoints with zero simulation.
    pub restored: Vec<String>,
    /// Cells simulated this run.
    pub simulated: Vec<String>,
    /// Cells whose die population could not be characterized, as
    /// `"name: error"` lines. Failed cells are dropped from the library.
    pub failed: Vec<String>,
    /// Quarantined checkpoint artifacts pruned after the sweep.
    pub pruned_quarantined: usize,
}

/// One cell's worth of work coming back from a worker.
enum McWork {
    /// Checkpoint hit: LVF cell and moments restored, nothing simulated.
    Restored(Box<Cell>, CellMoments),
    /// Simulated this run (and checkpointed if a store was given).
    Done(Box<Cell>, CellMoments),
    /// The die population could not be characterized.
    Failed(CellError),
}

/// Monte-Carlo characterization engine over a fixed device-card pair.
pub struct McCharacterizer {
    nfet: ModelCard,
    pfet: ModelCard,
    cfg: McConfig,
    /// Once a checkpoint write hits ENOSPC, stop hammering the volume and
    /// count the sheds instead (same degradation story as the nominal
    /// characterizer).
    shed_checkpoints: AtomicU64,
}

impl McCharacterizer {
    /// Engine for the given nominal device cards and MC config.
    #[must_use]
    pub fn new(nfet: &ModelCard, pfet: &ModelCard, cfg: McConfig) -> Self {
        Self {
            nfet: nfet.clone(),
            pfet: pfet.clone(),
            cfg,
            shed_checkpoints: AtomicU64::new(0),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Characterize every sampled die of one cell and fold the population
    /// into an LVF cell (per-entry mean tables + [`ArcSigma`] sigma
    /// tables) plus pooled per-arc moments.
    ///
    /// # Errors
    ///
    /// Any die failing its full retry ladder fails the cell.
    pub fn characterize_cell(&self, cell: &CellNetlist) -> Result<(Cell, CellMoments)> {
        let mut population = Vec::with_capacity(self.cfg.dies.max(1));
        for die in 0..self.cfg.dies.max(1) {
            // The fault schedule and the kernel's warm-start memo depend
            // only on (plan, cell, die) — never on which dies ran before
            // on this thread — so jobs-1 and jobs-N runs are identical.
            fault::set_context(&format!("{}#d{die}", cell.name));
            sparse::reset_solve_context();
            let mut rng = StdRng::seed_from_u64(self.cfg.die_seed(&cell.name, die));
            let die_n = sample_die(&self.nfet, &self.cfg.variation, &mut rng);
            let die_p = sample_die(&self.pfet, &self.cfg.variation, &mut rng);
            let char = Characterizer::new(&die_n, &die_p, self.cfg.char_cfg.clone());
            let (result, _attempts) = char.characterize_cell_recovering(cell);
            population.push(result?);
        }
        aggregate_population(&cell.name, &population)
    }

    /// [`McCharacterizer::characterize_cell`] with checkpoint restore and
    /// store around the sweep — the per-cell SPICE-MC fallback entry
    /// point. Returns the LVF cell, its pooled moments, and whether the
    /// result was restored from the store with zero simulation.
    ///
    /// # Errors
    ///
    /// Any die failing its full retry ladder fails the cell.
    pub fn characterize_cell_checkpointed(
        &self,
        cell: &CellNetlist,
        checkpoint: Option<&CheckpointStore>,
    ) -> Result<(Cell, CellMoments, bool)> {
        match self.process_cell(cell, checkpoint) {
            McWork::Restored(c, m) => Ok((*c, m, true)),
            McWork::Done(c, m) => Ok((*c, m, false)),
            McWork::Failed(e) => Err(e),
        }
    }

    /// Process one cell with checkpoint restore/store around the sweep.
    fn process_cell(&self, cell: &CellNetlist, checkpoint: Option<&CheckpointStore>) -> McWork {
        if let Some(store) = checkpoint {
            if let Some(restored) = store.load(&cell.name) {
                if let Some(m) = load_moments(store, &cell.name) {
                    if m.dies == self.cfg.dies.max(1) && restored.arcs.len() == m.arcs.len() {
                        return McWork::Restored(Box::new(restored), m);
                    }
                }
            }
        }
        match self.characterize_cell(cell) {
            Ok((lvf_cell, moments)) => {
                if let Some(store) = checkpoint {
                    self.checkpoint_cell(store, &lvf_cell, &moments);
                }
                McWork::Done(Box::new(lvf_cell), moments)
            }
            Err(e) => McWork::Failed(e),
        }
    }

    /// Write the LVF cell and its moments blob, shedding on a full disk.
    fn checkpoint_cell(&self, store: &CheckpointStore, cell: &Cell, moments: &CellMoments) {
        if self.shed_checkpoints.load(Ordering::Relaxed) > 0 {
            self.shed_checkpoints.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let write = store.store(cell).and_then(|()| {
            let payload = serde_json::to_string(moments).map_err(|e| {
                CellError::Cache(format!("serialize moments for {}: {e}", cell.name))
            })?;
            store.store_blob(&moments_blob_name(&cell.name), &payload)
        });
        if let Err(e) = write {
            if e.is_no_space() {
                self.shed_checkpoints.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: MC checkpoint store is out of disk space; \
                     shedding checkpoint writes and continuing ({e})"
                );
            } else {
                eprintln!("warning: MC checkpoint write for {} failed: {e}", cell.name);
            }
        }
    }

    /// Run the per-cell sweep over the whole set on `CharConfig::jobs`
    /// workers ([`sched::map`], the nominal characterizer's scheduler) and
    /// return results in cell order.
    fn process_cells(
        &self,
        cells: &[CellNetlist],
        checkpoint: Option<&CheckpointStore>,
    ) -> Vec<McWork> {
        let done = AtomicUsize::new(0);
        sched::map(cells.len(), self.cfg.char_cfg.effective_jobs(), |i| {
            self.progress_line(&done, cells.len(), &cells[i].name);
            self.process_cell(&cells[i], checkpoint)
        })
    }

    fn progress_line(&self, done: &AtomicUsize, total: usize, cell: &str) {
        if self.cfg.char_cfg.progress {
            let i = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("  mc [{i}/{total}] {cell} ({} dies)", self.cfg.dies.max(1));
        }
    }

    /// Monte-Carlo characterize a whole cell set into an LVF library.
    ///
    /// Failed cells are dropped from the library and reported; the sweep
    /// never aborts the batch. After the sweep, quarantined checkpoint
    /// artifacts beyond [`QUARANTINE_KEEP`] generations are pruned.
    pub fn characterize_library(
        &self,
        name: &str,
        cells: &[CellNetlist],
        checkpoint: Option<&CheckpointStore>,
    ) -> (Library, McReport) {
        let works = self.process_cells(cells, checkpoint);
        let mut lib = Library::new(name, self.cfg.char_cfg.temp, self.cfg.char_cfg.vdd);
        let mut report = McReport {
            dies: self.cfg.dies.max(1),
            base_seed: self.cfg.base_seed,
            cells: Vec::new(),
            restored: Vec::new(),
            simulated: Vec::new(),
            failed: Vec::new(),
            pruned_quarantined: 0,
        };
        for (netlist, work) in cells.iter().zip(works) {
            match work {
                McWork::Restored(cell, moments) => {
                    report.restored.push(netlist.name.clone());
                    report.cells.push(moments);
                    lib.add_cell(*cell);
                }
                McWork::Done(cell, moments) => {
                    report.simulated.push(netlist.name.clone());
                    report.cells.push(moments);
                    lib.add_cell(*cell);
                }
                McWork::Failed(e) => report.failed.push(format!("{}: {e}", netlist.name)),
            }
        }
        if let Some(store) = checkpoint {
            report.pruned_quarantined = store.prune_quarantined(QUARANTINE_KEEP);
        }
        (lib, report)
    }
}

/// Checkpoint name of a cell's moments blob. Lives in the same store as
/// the cell checkpoint under a name no cell can collide with.
#[must_use]
pub fn moments_blob_name(cell: &str) -> String {
    format!("{cell}__mc_moments")
}

/// Load and parse a cell's moments blob, if present and intact.
fn load_moments(store: &CheckpointStore, cell: &str) -> Option<CellMoments> {
    let payload = store.load_blob(&moments_blob_name(cell))?;
    serde_json::from_str(&payload).ok()
}

/// Standardized sample skewness `m3 / m2^(3/2)` over population moments;
/// 0 for fewer than 3 samples or a degenerate spread.
fn skewness(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 3 {
        return 0.0;
    }
    let nf = n as f64;
    let mean = samples.iter().sum::<f64>() / nf;
    let m2 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / nf;
    let m3 = samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / nf;
    if m2 > 0.0 {
        m3 / m2.powf(1.5)
    } else {
        0.0
    }
}

/// Per-entry (mean, Bessel sigma) tables over a population of congruent
/// tables. Axes are inherited from the first die.
fn table_moments(cell: &str, tables: &[&Lut2]) -> Result<(Lut2, Lut2)> {
    let base = tables[0];
    let entries = base.values().len();
    for t in &tables[1..] {
        if t.index1() != base.index1() || t.index2() != base.index2() {
            return Err(CellError::Measurement {
                cell: cell.to_string(),
                arc: "monte-carlo population".into(),
                what: "die tables share one grid",
            });
        }
    }
    let mut mean_vals = Vec::with_capacity(entries);
    let mut sigma_vals = Vec::with_capacity(entries);
    let mut sample = Vec::with_capacity(tables.len());
    for i in 0..entries {
        sample.clear();
        sample.extend(tables.iter().map(|t| t.values()[i]));
        let spread = stats(&sample);
        mean_vals.push(spread.mean);
        sigma_vals.push(spread.sigma);
    }
    let grid = |vals: Vec<f64>| {
        Lut2::new(base.index1().to_vec(), base.index2().to_vec(), vals).map_err(|_| {
            CellError::Measurement {
                cell: cell.to_string(),
                arc: "monte-carlo population".into(),
                what: "moment table construction",
            }
        })
    };
    Ok((grid(mean_vals)?, grid(sigma_vals)?))
}

/// Fold a die population into one LVF cell: per-entry mean tables with
/// sigma siblings on every timing arc, mean power tables, mean leakage,
/// mean pin caps — plus the pooled per-arc moments for the report.
fn aggregate_population(name: &str, dies: &[Cell]) -> Result<(Cell, CellMoments)> {
    let n = dies.len() as f64;
    let mut cell = dies[0].clone();
    for d in &dies[1..] {
        if d.arcs.len() != cell.arcs.len()
            || d.pins.len() != cell.pins.len()
            || d.power_arcs.len() != cell.power_arcs.len()
            || d.leakage_states.len() != cell.leakage_states.len()
        {
            return Err(CellError::Measurement {
                cell: name.to_string(),
                arc: "monte-carlo population".into(),
                what: "die cells share one structure",
            });
        }
    }
    let mut arc_moments = Vec::with_capacity(cell.arcs.len());
    for (i, arc) in cell.arcs.iter_mut().enumerate() {
        let pool = |f: fn(&cryo_liberty::TimingArc) -> &Lut2| -> Vec<&Lut2> {
            dies.iter().map(|d| f(&d.arcs[i])).collect()
        };
        let (mean_cr, sig_cr) = table_moments(name, &pool(|a| &a.cell_rise))?;
        let (mean_cf, sig_cf) = table_moments(name, &pool(|a| &a.cell_fall))?;
        let (mean_rt, sig_rt) = table_moments(name, &pool(|a| &a.rise_transition))?;
        let (mean_ft, sig_ft) = table_moments(name, &pool(|a| &a.fall_transition))?;
        // Pooled per-die mean delay: one scalar sample per die, so the
        // report's (mean, sigma, skew) describe the die population rather
        // than grid noise.
        let die_means: Vec<f64> = dies
            .iter()
            .map(|d| {
                let a = &d.arcs[i];
                let vals = a.cell_rise.values().iter().chain(a.cell_fall.values());
                let (sum, count) = vals.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
                sum / count.max(1) as f64
            })
            .collect();
        let spread = stats(&die_means);
        arc_moments.push(ArcMoments {
            related_pin: arc.related_pin.clone(),
            pin: arc.pin.clone(),
            mean_delay: spread.mean,
            sigma_delay: spread.sigma,
            skew_delay: skewness(&die_means),
        });
        arc.cell_rise = mean_cr;
        arc.cell_fall = mean_cf;
        arc.rise_transition = mean_rt;
        arc.fall_transition = mean_ft;
        arc.sigma = Some(ArcSigma {
            cell_rise: sig_cr,
            cell_fall: sig_cf,
            rise_transition: sig_rt,
            fall_transition: sig_ft,
        });
    }
    for (i, pa) in cell.power_arcs.iter_mut().enumerate() {
        let rise: Vec<&Lut2> = dies.iter().map(|d| &d.power_arcs[i].rise_energy).collect();
        let fall: Vec<&Lut2> = dies.iter().map(|d| &d.power_arcs[i].fall_energy).collect();
        pa.rise_energy = table_moments(name, &rise)?.0;
        pa.fall_energy = table_moments(name, &fall)?.0;
    }
    for (i, state) in cell.leakage_states.iter_mut().enumerate() {
        state.1 = dies.iter().map(|d| d.leakage_states[i].1).sum::<f64>() / n;
    }
    for (i, pin) in cell.pins.iter_mut().enumerate() {
        pin.capacitance = dies.iter().map(|d| d.pins[i].capacitance).sum::<f64>() / n;
    }
    let moments = CellMoments {
        cell: name.to_string(),
        dies: dies.len(),
        arcs: arc_moments,
    };
    Ok((cell, moments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryo_cells::topology;
    use cryo_device::Polarity;

    fn cards() -> (ModelCard, ModelCard) {
        (
            ModelCard::nominal(Polarity::N),
            ModelCard::nominal(Polarity::P),
        )
    }

    fn tiny_cfg(jobs: usize) -> CharConfig {
        CharConfig {
            temp: 300.0,
            vdd: 0.7,
            slews: vec![5e-12, 20e-12],
            loads_x1: vec![0.8e-15, 3.2e-15],
            steps: 100,
            progress: false,
            max_attempts: 3,
            jobs,
        }
    }

    fn mc_cfg(dies: usize, jobs: usize) -> McConfig {
        McConfig::new(dies, 0xC0FFEE, tiny_cfg(jobs))
    }

    #[test]
    fn die_seed_mixes_cell_and_die() {
        let cfg = mc_cfg(4, 1);
        assert_ne!(cfg.die_seed("INVx1", 0), cfg.die_seed("INVx1", 1));
        assert_ne!(cfg.die_seed("INVx1", 0), cfg.die_seed("INVx2", 0));
        assert_eq!(cfg.die_seed("INVx1", 2), cfg.die_seed("INVx1", 2));
    }

    #[test]
    fn mc_key_differs_from_nominal_and_tracks_knobs() {
        let (n, p) = cards();
        let cfg = mc_cfg(4, 1);
        let nominal = cache::cache_key(&n, &p, &cfg.char_cfg, "tag").unwrap();
        let k4 = mc_cache_key(&n, &p, &cfg, "tag").unwrap();
        assert_ne!(nominal, k4);
        let mut cfg8 = cfg.clone();
        cfg8.dies = 8;
        assert_ne!(k4, mc_cache_key(&n, &p, &cfg8, "tag").unwrap());
        let mut reseeded = cfg.clone();
        reseeded.base_seed ^= 1;
        assert_ne!(k4, mc_cache_key(&n, &p, &reseeded, "tag").unwrap());
    }

    #[test]
    fn skewness_is_zero_for_symmetric_and_signed_for_tails() {
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert!(skewness(&[1.0, 2.0, 3.0]).abs() < 1e-12);
        assert!(skewness(&[1.0, 1.0, 1.0, 10.0]) > 0.5);
        assert!(skewness(&[10.0, 10.0, 10.0, 1.0]) < -0.5);
    }

    #[test]
    fn single_die_population_gets_zero_sigma() {
        let (n, p) = cards();
        let engine = McCharacterizer::new(&n, &p, mc_cfg(1, 1));
        let (cell, moments) = engine.characterize_cell(&topology::inverter(1)).unwrap();
        let sigma = cell.arcs[0].sigma.as_ref().expect("LVF cell carries sigma");
        assert!(sigma.cell_rise.values().iter().all(|&v| v == 0.0));
        assert_eq!(moments.dies, 1);
        assert_eq!(moments.arcs[0].sigma_delay, 0.0);
    }

    #[test]
    fn sampled_population_yields_positive_congruent_sigma() {
        let (n, p) = cards();
        let engine = McCharacterizer::new(&n, &p, mc_cfg(4, 1));
        let (cell, moments) = engine.characterize_cell(&topology::inverter(1)).unwrap();
        let arc = &cell.arcs[0];
        let sigma = arc.sigma.as_ref().expect("LVF cell carries sigma");
        assert_eq!(sigma.cell_rise.index1(), arc.cell_rise.index1());
        assert_eq!(sigma.cell_rise.index2(), arc.cell_rise.index2());
        assert!(sigma.cell_rise.values().iter().any(|&v| v > 0.0));
        assert!(sigma
            .cell_rise
            .values()
            .iter()
            .all(|&v| v.is_finite() && v >= 0.0));
        assert!(moments.arcs[0].sigma_delay > 0.0);
        assert!(moments.arcs[0].mean_delay > 0.0);
    }

    #[test]
    fn moments_blob_round_trips_through_store() {
        let moments = CellMoments {
            cell: "INVx1".into(),
            dies: 4,
            arcs: vec![ArcMoments {
                related_pin: "A".into(),
                pin: "Y".into(),
                mean_delay: 1e-11,
                sigma_delay: 4e-13,
                skew_delay: 0.2,
            }],
        };
        let json = serde_json::to_string(&moments).unwrap();
        let back: CellMoments = serde_json::from_str(&json).unwrap();
        assert_eq!(back, moments);
    }
}
