//! Arrival propagation engine.

use cryo_liberty::{ArcKind, Cell, Library, TimingArc};
use cryo_netlist::design::{CellType, Design, Levels};
use cryo_spice::{fault, work};

use crate::report::{
    DegradeCause, DegradeResolution, DegradedArc, EndpointSummary, PathSigma, PathStep,
    StatisticalSummary, TimingReport,
};
use crate::{Result, StaError};

/// What the engine does when an arc cannot be timed from real library data
/// — the instance's cell is missing (PR 1's coverage floor admits partially
/// failed characterizations), the cell has no timing arc to the pin, or the
/// fault injector's `sta_lookup` site fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissingArcPolicy {
    /// Refuse: missing cells raise [`StaError::UnmappedCell`], injected
    /// lookup faults raise [`StaError::ArcLookupFault`]. The pre-degraded
    /// behavior, and the default.
    Fail,
    /// Borrow the matching arc from the nearest drive-strength sibling,
    /// scaled by the drive ratio times `1 + margin`; fall back to
    /// [`MissingArcPolicy::PessimisticBound`] when no sibling has the arc.
    BorrowSibling {
        /// Extra pessimism applied on top of the drive-ratio scaling.
        margin: f64,
    },
    /// Assume the slowest combinational delay in the whole library at the
    /// same operating point, times a fixed pessimism factor.
    PessimisticBound,
}

/// Pessimism multiplier applied to the library-wide worst delay when a
/// degraded arc is resolved by bound rather than by borrowing.
const BOUND_PESSIMISM: f64 = 2.0;
/// Stand-in delay when the library has no combinational arc to bound from.
const BOUND_FALLBACK: f64 = 1e-9;

/// STA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaConfig {
    /// Analysis clock period, seconds. The paper synthesizes at 0 ns to
    /// force maximum optimization and reads the worst slack as the critical
    /// path; `0.0` reproduces that.
    pub clock_period: f64,
    /// Transition time assumed at primary inputs and clock pins, seconds.
    pub input_slew: f64,
    /// Corner scale factor applied to SRAM macro timing (ratio of the
    /// corner's mean cell delay to the 300 K mean; 1.0 at 300 K).
    pub macro_delay_scale: f64,
    /// Capacitive load each SRAM macro input pin presents, farads.
    pub macro_input_cap: f64,
    /// Earliest arrival assumed at primary inputs for hold analysis,
    /// seconds (external input delay).
    pub input_min_delay: f64,
    /// How many worst endpoints to summarize in the report.
    pub max_reported_paths: usize,
    /// Degradation policy for arcs that cannot be timed from library data.
    pub missing_arc_policy: MissingArcPolicy,
    /// Statistical timing mode: when set, every arc's LVF sigma (from the
    /// library's `ocv_sigma_*` tables) is accumulated root-sum-square
    /// along the worst path, and slacks are additionally derated by
    /// `k · sigma` with this corner multiplier. `None` (the default) is
    /// the nominal mode and leaves reports byte-identical to pre-LVF
    /// analyses.
    pub slack_k_sigma: Option<f64>,
}

impl Default for StaConfig {
    fn default() -> Self {
        Self {
            clock_period: 0.0,
            input_slew: 20e-12,
            macro_delay_scale: 1.0,
            macro_input_cap: 2.0e-15,
            input_min_delay: 10e-12,
            max_reported_paths: 8,
            missing_arc_policy: MissingArcPolicy::Fail,
            slack_k_sigma: None,
        }
    }
}

/// Per-net timing state.
#[derive(Debug, Clone, Copy)]
struct NetTiming {
    /// Worst (max) arrival and the slew accompanying it.
    max_arrival: f64,
    max_slew: f64,
    /// Best (min) arrival for hold analysis.
    min_arrival: f64,
    /// Accumulated delay variance (sigma²) along the worst path. Rides
    /// the arrival-selected path — selection itself stays nominal, so
    /// statistical mode never changes which path is critical.
    max_variance: f64,
    /// Arcs on the worst path that carried LVF sigma tables.
    sigma_arcs: u32,
    /// Total timed arcs on the worst path.
    path_arcs: u32,
    /// Whether any path reaches this net.
    reached: bool,
    /// Backtrace: instance index and its input net on the worst path.
    parent: Option<(u32, u32)>,
}

impl Default for NetTiming {
    fn default() -> Self {
        Self {
            max_arrival: f64::NEG_INFINITY,
            max_slew: 0.0,
            min_arrival: f64::INFINITY,
            max_variance: 0.0,
            sigma_arcs: 0,
            path_arcs: 0,
            reached: false,
            parent: None,
        }
    }
}

/// The cell standing behind a cell type for this analysis.
enum EffCell<'a> {
    /// The type's own cell, straight from the library.
    Real(&'a Cell),
    /// The cell is absent; `sibling` is the nearest drive-strength family
    /// member (used for classification, pin caps, and — under
    /// `BorrowSibling` — arc borrowing).
    Missing { sibling: Option<&'a Cell> },
}

/// A sequential cell type's capture side: its `D` input and constraints.
struct Capture {
    /// Input index of the next-state pin.
    pin: usize,
    setup: f64,
    setup_sigma: f64,
    hold: f64,
}

/// A library arc bound to a cell type.
#[derive(Clone, Copy)]
struct BoundArc<'a> {
    arc: &'a TimingArc,
    /// The related pin's input index.
    related: Option<usize>,
    /// Whether the four nominal tables share axes, so that one
    /// `Lut2::locate` serves all four.
    shared_axes: bool,
}

impl<'a> BoundArc<'a> {
    fn new(arc: &'a TimingArc, related: Option<usize>) -> Self {
        let tables = [&arc.cell_fall, &arc.rise_transition, &arc.fall_transition];
        Self {
            arc,
            related,
            shared_axes: tables.iter().all(|t| t.same_axes(&arc.cell_rise)),
        }
    }

    /// The arc at `(slew, load)`: its worst delay
    /// ([`TimingArc::worst_delay`]), its faster edge (the hold side) and
    /// its output slew ([`worst_transition`]), from one value of each
    /// nominal table.
    fn eval(&self, slew: f64, load: f64) -> (f64, f64, f64) {
        let a = self.arc;
        let tables = [
            &a.cell_rise,
            &a.cell_fall,
            &a.rise_transition,
            &a.fall_transition,
        ];
        let [rise, fall, rise_tr, fall_tr] = if self.shared_axes {
            let at = a.cell_rise.locate(slew, load);
            tables.map(|t| t.interpolate(at))
        } else {
            tables.map(|t| t.lookup(slew, load))
        };
        (rise.max(fall), rise.min(fall), rise_tr.max(fall_tr))
    }
}

/// One cell type bound to the library, once for all its instances.
struct TypeTiming<'a> {
    eff: EffCell<'a>,
    /// Whether instances launch paths rather than propagate them.
    seq: bool,
    /// Per output pin: the library's arcs to it in library order.
    arcs: Vec<Vec<BoundArc<'a>>>,
    capture: Option<Capture>,
}

impl<'a> TypeTiming<'a> {
    fn bind(ty: &'a CellType, lib: &'a Library, cfg: &StaConfig) -> Self {
        let input = |pin: &str| ty.inputs.iter().position(|p| p == pin);
        let (eff, arcs, seq) = match lib.cell(&ty.name) {
            Ok(cell) => {
                let arcs = ty.outputs.iter().map(|pin| {
                    cell.arcs_to(pin)
                        .map(|arc| BoundArc::new(arc, input(&arc.related_pin)))
                        .collect()
                });
                (EffCell::Real(cell), arcs.collect(), cell.is_sequential())
            }
            Err(_) => {
                let sibling = find_sibling(lib, &ty.name);
                let seq = sibling.is_some_and(Cell::is_sequential);
                (
                    EffCell::Missing { sibling },
                    vec![Vec::new(); ty.outputs.len()],
                    seq,
                )
            }
        };
        // A missing cell borrows its sibling's constraints with the
        // policy's margin; the launch side records the stand-in.
        let (constraint_cell, scale) = match eff {
            EffCell::Real(cell) => (Some(cell), 1.0),
            EffCell::Missing { sibling } => match cfg.missing_arc_policy {
                MissingArcPolicy::BorrowSibling { margin } => (sibling, 1.0 + margin),
                _ => (sibling, 1.0),
            },
        };
        let capture = constraint_cell.filter(|_| seq).and_then(|cell| {
            let pin = input(&cell.ff.as_ref()?.next_state)?;
            let mut c = Capture {
                pin,
                setup: 0.0,
                setup_sigma: 0.0,
                hold: 0.0,
            };
            for arc in cell.constraint_arcs() {
                match arc.kind {
                    ArcKind::Setup => {
                        c.setup = arc.cell_rise.lookup(0.0, 0.0) * scale;
                        c.setup_sigma = arc.sigma_rise(0.0, 0.0) * scale;
                    }
                    ArcKind::Hold => c.hold = arc.cell_rise.lookup(0.0, 0.0) * scale,
                    _ => {}
                }
            }
            Some(c)
        });
        Self {
            eff,
            seq,
            arcs,
            capture,
        }
    }
}

/// The slower of an arc's output rise and fall transitions, seconds.
fn worst_transition(arc: &TimingArc, slew: f64, load: f64) -> f64 {
    arc.rise_transition
        .lookup(slew, load)
        .max(arc.fall_transition.lookup(slew, load))
}

/// Family prefix used for sibling lookup: the name with trailing drive
/// digits trimmed (`INVx2` → `INVx`), matching the characterization
/// layer's derating convention.
fn family_prefix(name: &str) -> &str {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Drive strength encoded in a cell name (`NAND2x4` → 4; 1 when absent).
fn name_drive(name: &str) -> u32 {
    name.rsplit('x')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Nearest drive-strength sibling of `cell` present in the library
/// (deterministic: nearest drive, then lexicographically first name).
fn find_sibling<'a>(lib: &'a Library, cell: &str) -> Option<&'a Cell> {
    let family = family_prefix(cell);
    if family.is_empty() {
        return None;
    }
    let want = i64::from(name_drive(cell));
    lib.cells()
        .iter()
        .filter(|c| c.name != cell && c.name.starts_with(family))
        .min_by(|a, b| {
            (i64::from(a.drive) - want)
                .abs()
                .cmp(&(i64::from(b.drive) - want).abs())
                .then_with(|| a.name.cmp(&b.name))
        })
}

/// Scale applied to a donor arc standing in for `cell`: the drive ratio
/// (clamped at ≥ 1 so a weaker donor never makes the stand-in optimistic)
/// times `1 + margin`.
fn borrow_scale(cell: &str, donor: &Cell, margin: f64) -> f64 {
    (f64::from(donor.drive) / f64::from(name_drive(cell).max(1))).max(1.0) * (1.0 + margin)
}

/// Resolves degraded arcs per the configured policy and records the
/// provenance of every stand-in it hands out.
struct Degrader<'a> {
    lib: &'a Library,
    policy: MissingArcPolicy,
    records: Vec<DegradedArc>,
}

impl<'a> Degrader<'a> {
    /// Library-wide pessimistic delay bound at an operating point.
    fn bound(&self, slew: f64, load: f64) -> f64 {
        let worst = self
            .lib
            .cells()
            .iter()
            .flat_map(|c| c.arcs.iter())
            .filter(|a| a.kind == ArcKind::Combinational)
            .map(|a| a.worst_delay(slew, load))
            .fold(f64::NEG_INFINITY, f64::max);
        if worst.is_finite() {
            worst * BOUND_PESSIMISM
        } else {
            BOUND_FALLBACK
        }
    }

    /// Produce a stand-in `(delay, output_slew)` for an arc that could not
    /// be timed, and record its provenance. Must not be called under the
    /// `Fail` policy (callers error out first). Callers count it as an arc
    /// evaluation.
    fn stand_in(
        &mut self,
        (instance, cell, pin): (&str, &str, &str),
        cause: DegradeCause,
        slew: f64,
        load: f64,
    ) -> (f64, f64) {
        let borrowed = match self.policy {
            MissingArcPolicy::Fail => unreachable!("Fail is handled before degradation"),
            MissingArcPolicy::BorrowSibling { margin } => {
                find_sibling(self.lib, cell).and_then(|donor| {
                    donor.arcs_to(pin).next().map(|arc| {
                        let scale = borrow_scale(cell, donor, margin);
                        let d = arc.worst_delay(slew, load) * scale;
                        let s = worst_transition(arc, slew, load) * scale;
                        (d, s, DegradeResolution::borrowed(&donor.name, margin))
                    })
                })
            }
            MissingArcPolicy::PessimisticBound => None,
        };
        let (delay, out_slew, resolution) = borrowed.unwrap_or_else(|| {
            let d = self.bound(slew, load);
            (d, slew, DegradeResolution::bound())
        });
        self.records.push(DegradedArc {
            instance: instance.to_string(),
            cell: cell.to_string(),
            pin: pin.to_string(),
            cause,
            resolution,
            assumed_delay: delay,
        });
        (delay, out_slew)
    }
}

/// Instance, cell and output pin names of output `k` of instance `i`: only
/// fault contexts, errors and degraded-arc records read them.
fn out_pin(design: &Design, i: usize, k: usize) -> (&str, &str, &str) {
    let ty = &design.cell_types()[design.instance_ids(i).cell_type];
    (
        design.instance_name(i),
        ty.name.as_str(),
        ty.outputs[k].as_str(),
    )
}

/// What the arrival propagation reads, shared by every thread.
struct Walk<'a> {
    design: &'a Design,
    lib: &'a Library,
    cfg: &'a StaConfig,
    types: &'a [TypeTiming<'a>],
    /// Net loads by net.
    net_load: &'a [f64],
    levels: &'a Levels,
    fault_active: bool,
}

impl Walk<'_> {
    /// Propagate arrivals through `insts`, in order. The slots from `base`
    /// on are `own`, and the walk writes only there; the slots below
    /// `base` are `done`. Arc evaluations go to this thread's ledger, on
    /// error too, and the degraded arcs come back in discovery order.
    fn run(
        &self,
        insts: &[u32],
        done: &[NetTiming],
        own: &mut [NetTiming],
        base: usize,
    ) -> Result<Vec<DegradedArc>> {
        let mut degrader = Degrader {
            lib: self.lib,
            policy: self.cfg.missing_arc_policy,
            records: Vec::new(),
        };
        let mut arc_evals = 0;
        let walked = insts
            .iter()
            .try_for_each(|&i| self.instance(i, done, own, base, &mut degrader, &mut arc_evals));
        work::bump(|w| w.arc_evals += arc_evals);
        walked.map(|()| degrader.records)
    }

    /// Time every output of instance `i` from its inputs.
    fn instance(
        &self,
        i: u32,
        done: &[NetTiming],
        own: &mut [NetTiming],
        base: usize,
        degrader: &mut Degrader,
        arc_evals: &mut u64,
    ) -> Result<()> {
        let (design, levels) = (self.design, self.levels);
        let fail_policy = self.cfg.missing_arc_policy == MissingArcPolicy::Fail;
        let inst = design.instance_ids(i as usize);
        let ty = &self.types[inst.cell_type];
        let ins = inst.inputs;
        let at = |own: &[NetTiming], net: u32| {
            let slot = levels.slot(net as usize);
            if slot < base {
                done[slot]
            } else {
                own[slot - base]
            }
        };
        // Label the injection context per instance (prefixed so fault
        // scopes can target the whole STA stage with `scope=sta:` or one
        // instance). Each instance reseeds its own stream, so the draw
        // schedule is a pure function of (plan, design), whichever thread
        // times the instance.
        if self.fault_active {
            fault::set_context(&format!("sta:{}", design.instance_name(i as usize)));
        }
        // The worst-path state an arc from input `tin` hands its output:
        // variance and counters ride the selected worst arrival.
        let via = |tin: NetTiming, from: u32, arr: f64, slew: f64, sigma: f64| {
            let (var, sarcs) = (tin.max_variance + sigma * sigma, u32::from(sigma > 0.0));
            Some((
                arr,
                slew,
                from,
                var,
                tin.sigma_arcs + sarcs,
                tin.path_arcs + 1,
            ))
        };
        for (k, &out_net) in inst.outputs.iter().enumerate() {
            let load = self.net_load[out_net as usize];
            // arrival, slew, from-net, path variance, sigma-arc count,
            // total-arc count — variance and counters ride the selected
            // worst arrival; they never influence the selection itself.
            let mut best: Option<(f64, f64, u32, f64, u32, u32)> = None;
            let mut min_arr = f64::INFINITY;
            let mut have_arc = false;
            for b in &ty.arcs[k] {
                if b.arc.kind != ArcKind::Combinational {
                    continue;
                }
                have_arc = true;
                let Some(related) = b.related else {
                    continue;
                };
                let in_net = ins[related];
                let tin = at(own, in_net);
                if !tin.reached {
                    continue;
                }
                if self.fault_active && fault::should_fault_sta_lookup() {
                    // The lookup "failed": this arc's tables are
                    // unusable for this analysis.
                    let names = out_pin(design, i as usize, k);
                    if fail_policy {
                        let (instance, cell, pin) = names;
                        return Err(StaError::ArcLookupFault {
                            instance: instance.to_string(),
                            cell: cell.to_string(),
                            pin: pin.to_string(),
                        });
                    }
                    *arc_evals += 1;
                    let (delay, out_slew) =
                        degrader.stand_in(names, DegradeCause::InjectedFault, tin.max_slew, load);
                    let arr = tin.max_arrival + delay;
                    if best.is_none_or(|(a, ..)| arr > a) {
                        // A stand-in has no LVF data: zero variance
                        // contribution, counted as an uncovered arc.
                        best = via(tin, in_net, arr, out_slew, 0.0);
                    }
                    // Zero min-path contribution keeps hold analysis
                    // conservative under degradation.
                    min_arr = min_arr.min(tin.min_arrival);
                    continue;
                }
                *arc_evals += 1;
                let (delay, dmin, out_slew) = b.eval(tin.max_slew, load);
                let arr = tin.max_arrival + delay;
                if best.is_none_or(|(a, ..)| arr > a) {
                    let sigma = b.arc.worst_sigma(tin.max_slew, load);
                    best = via(tin, in_net, arr, out_slew, sigma);
                }
                min_arr = min_arr.min(tin.min_arrival + dmin);
            }
            // Degraded resolution: the cell is missing entirely, or it has
            // no combinational arc to this output. Time the pin from its
            // worst reached input with a policy stand-in.
            if best.is_none() && !have_arc && !fail_policy {
                let cause = match ty.eff {
                    EffCell::Real(_) => DegradeCause::MissingArc,
                    EffCell::Missing { .. } => DegradeCause::MissingCell,
                };
                let worst_in = ins
                    .iter()
                    .map(|&n| (n, at(own, n)))
                    .filter(|(_, t)| t.reached)
                    .max_by(|(_, a), (_, b)| {
                        a.max_arrival
                            .partial_cmp(&b.max_arrival)
                            .expect("arrivals are finite")
                    });
                if let Some((in_net, tin)) = worst_in {
                    *arc_evals += 1;
                    let names = out_pin(design, i as usize, k);
                    let (delay, out_slew) = degrader.stand_in(names, cause, tin.max_slew, load);
                    best = via(tin, in_net, tin.max_arrival + delay, out_slew, 0.0);
                    min_arr = tin.min_arrival;
                }
            }
            if let Some((arr, slew, from, var, sarcs, parcs)) = best {
                let t = &mut own[levels.slot(out_net as usize) - base];
                if arr > t.max_arrival {
                    t.max_arrival = arr;
                    t.max_slew = slew;
                    t.max_variance = var;
                    t.sigma_arcs = sarcs;
                    t.path_arcs = parcs;
                    t.parent = Some((i, from));
                }
                t.min_arrival = t.min_arrival.min(min_arr);
                t.reached = true;
            }
        }
        Ok(())
    }
}

/// Run setup and hold timing analysis on `design` against `lib`.
///
/// See the crate-level docs for the algorithm; typical use:
///
/// ```no_run
/// use cryo_sta::{analyze, StaConfig};
/// # let design = cryo_netlist::build_soc(&cryo_netlist::SocConfig::tiny());
/// # let lib = cryo_liberty::Library::new("corner", 300.0, 0.7);
/// let report = analyze(&design, &lib, &StaConfig::default())?;
/// println!("fmax = {:.0} MHz", report.fmax() / 1e6);
/// # Ok::<(), cryo_sta::StaError>(())
/// ```
///
/// Degraded-mode operation: with a non-`Fail`
/// [`StaConfig::missing_arc_policy`], missing cells, missing arcs, and
/// injected lookup faults are resolved to explicit pessimistic stand-ins
/// instead of errors, and every stand-in is recorded in
/// [`TimingReport::degraded_arcs`]. Degraded arcs contribute zero min-path
/// delay, so hold analysis stays conservative.
///
/// # Errors
///
/// - [`StaError::UnmappedCell`] if an instance's cell is missing (under
///   the `Fail` policy).
/// - [`StaError::ArcLookupFault`] if the injector kills an arc lookup
///   (under the `Fail` policy).
/// - [`StaError::CombinationalLoop`] if registers do not break all cycles.
/// - [`StaError::NoEndpoints`] for designs with nothing to time.
pub fn analyze(design: &Design, lib: &Library, cfg: &StaConfig) -> Result<TimingReport> {
    analyze_on(design, lib, cfg, work::threads())
}

/// Fewest instances of one level that [`analyze`] hands a thread: below
/// this, starting a thread costs more than the arcs it evaluates. On the
/// full SoC, 8 of the 32 levels hold 57 891 to 82 325 instances each and
/// the other 24 at most about 5 000, so only the wide levels split.
const MIN_INSTANCES_PER_THREAD: usize = 4096;

/// [`analyze`] over `threads` threads. Arc evaluations reach the work
/// ledger of the thread that counted them, and the injection context is
/// reset on every return.
fn analyze_on(
    design: &Design,
    lib: &Library,
    cfg: &StaConfig,
    threads: usize,
) -> Result<TimingReport> {
    let report = analyze_levels(design, lib, cfg, threads);
    if fault::is_active() {
        fault::set_context("");
    }
    report
}

#[allow(clippy::too_many_lines)]
fn analyze_levels(
    design: &Design,
    lib: &Library,
    cfg: &StaConfig,
    threads: usize,
) -> Result<TimingReport> {
    let fail_policy = cfg.missing_arc_policy == MissingArcPolicy::Fail;
    let mut degrader = Degrader {
        lib,
        policy: cfg.missing_arc_policy,
        records: Vec::new(),
    };

    // ------------------------------------------------------------------
    // Bind each cell type to the library.
    // ------------------------------------------------------------------
    let types: Vec<TypeTiming> = design
        .cell_types()
        .iter()
        .map(|t| TypeTiming::bind(t, lib, cfg))
        .collect();
    let missing = |t: usize| fail_policy && matches!(types[t].eff, EffCell::Missing { .. });
    if let Some(inst) = design.first_instance_of(missing) {
        return Err(StaError::UnmappedCell {
            instance: inst.name.to_string(),
            cell: inst.cell.clone(),
        });
    }

    // Fallback input cap for pins of missing cells without a sibling: the
    // largest input capacitance in the library (pessimistic load).
    let max_input_cap = lib
        .cells()
        .iter()
        .flat_map(|c| c.pins.iter())
        .map(|p| p.capacitance)
        .fold(0.0f64, f64::max)
        .max(cfg.macro_input_cap);

    // ------------------------------------------------------------------
    // Net loads: sum of sink pin caps + wire estimate.
    // ------------------------------------------------------------------
    let net_load = design.net_loads(cfg.macro_input_cap, |t, pin| {
        let sibling_cap = |s: &Cell| s.pin(pin).map_or(max_input_cap, |p| p.capacitance);
        match types[t].eff {
            EffCell::Real(cell) => cell.pin(pin).map_or(0.0, |p| p.capacitance),
            EffCell::Missing { sibling } => sibling.map_or(max_input_cap, sibling_cap),
        }
    });

    // ------------------------------------------------------------------
    // Levelize the combinational instances. Timing is kept per slot.
    // ------------------------------------------------------------------
    let seq: Vec<bool> = types.iter().map(|t| t.seq).collect();
    let levels = design.levels(&seq);
    let slot = |net: usize| levels.slot(net);

    // ------------------------------------------------------------------
    // Seed startpoints.
    // ------------------------------------------------------------------
    let mut timing: Vec<NetTiming> = vec![NetTiming::default(); design.net_count()];
    // `is_arc` marks seeds that represent a timed launch arc (clk→Q) as
    // opposed to a primary input or macro assumption — only real arcs
    // count toward the per-path sigma-coverage provenance.
    fn seed(t: &mut NetTiming, arrival: f64, slew: f64, sigma: f64, is_arc: bool) {
        if arrival > t.max_arrival {
            t.max_variance = sigma * sigma;
            t.sigma_arcs = u32::from(is_arc && sigma > 0.0);
            t.path_arcs = u32::from(is_arc);
        }
        t.max_arrival = t.max_arrival.max(arrival);
        t.min_arrival = t.min_arrival.min(arrival);
        t.max_slew = t.max_slew.max(slew);
        t.reached = true;
    }
    for &pi in design.primary_inputs.iter().chain(&design.clock) {
        let t = &mut timing[slot(pi)];
        seed(t, 0.0, cfg.input_slew, 0.0, false);
        t.min_arrival = cfg.input_min_delay;
    }
    // Sequential cell outputs launch at clk→Q. A missing cell takes its
    // classification from its sibling; an orphan counts as combinational.
    let mut launch_evals = 0;
    for i in 0..design.cell_count() {
        let inst = design.instance_ids(i);
        let ty = &types[inst.cell_type];
        if !ty.seq {
            continue;
        }
        for (k, &net) in inst.outputs.iter().enumerate() {
            let net = net as usize;
            let load = net_load[net];
            let t = &mut timing[slot(net)];
            if let EffCell::Missing { .. } = ty.eff {
                let (cause, slew) = (DegradeCause::MissingCell, cfg.input_slew);
                launch_evals += 1;
                let (d, s) = degrader.stand_in(out_pin(design, i, k), cause, slew, load);
                seed(t, d, s, 0.0, true);
                continue;
            }
            for b in ty.arcs[k]
                .iter()
                .filter(|b| b.arc.kind == ArcKind::ClockToQ)
            {
                launch_evals += 1;
                let (d, _, s) = b.eval(cfg.input_slew, load);
                let sig = b.arc.worst_sigma(cfg.input_slew, load);
                seed(t, d, s, sig, true);
            }
        }
    }
    work::bump(|w| w.arc_evals += launch_evals);
    // Macro outputs: launch at scaled clock-to-out.
    for m in design.macros() {
        let d = m.spec.clk_to_out(cfg.macro_delay_scale);
        for &net in &m.outputs {
            seed(&mut timing[slot(net)], d, 30e-12, 0.0, false);
        }
    }

    let n_cells = design.cell_count();
    if levels.order().len() != levels.comb_count() {
        // Name a net on the cycle: an input of the first instance left out.
        let comb = |i: usize| !seq[design.instance_ids(i).cell_type];
        let mut left_out: Vec<bool> = (0..n_cells).map(comb).collect();
        levels
            .order()
            .iter()
            .for_each(|&i| left_out[i as usize] = false);
        let stuck = left_out
            .iter()
            .position(|&l| l)
            .expect("some instance is stuck");
        let net = design
            .net_name(design.instance_ids(stuck).inputs[0] as usize)
            .to_string();
        return Err(StaError::CombinationalLoop { net });
    }

    // ------------------------------------------------------------------
    // Propagate arrivals, level by level.
    // ------------------------------------------------------------------
    let walk = Walk {
        design,
        lib,
        cfg,
        types: &types,
        net_load: &net_load,
        levels: &levels,
        fault_active: fault::is_active(),
    };
    let mut records = degrader.records;
    if levels.single_driver() {
        for l in 0..levels.len() {
            // The finished levels' slots, read-only, and this level's,
            // split into one contiguous chunk per thread.
            let (insts, slots) = (levels.level(l), levels.level_slots(l));
            let (done, rest) = timing.split_at_mut(slots.start);
            let (mut rest, mut base) = (&mut rest[..slots.len()], slots.start);
            let mut parts = Vec::new();
            let mut ranges = work::split(insts.len(), threads, MIN_INSTANCES_PER_THREAD);
            let last = ranges.pop().expect("a split has a part");
            for range in ranges {
                let chunk = &insts[range];
                let outputs = chunk
                    .iter()
                    .map(|&i| design.instance_ids(i as usize).outputs.len());
                let (own, next) = std::mem::take(&mut rest).split_at_mut(outputs.sum());
                let len = own.len();
                parts.push((chunk, own, base));
                (rest, base) = (next, base + len);
            }
            parts.push((&insts[last], rest, base));
            let done = &*done;
            let found = work::fork(parts, |(chunk, own, base)| walk.run(chunk, done, own, base))?;
            records.extend(found.into_iter().flatten());
        }
    } else {
        // A net with two drivers has two writers: one thread, in order.
        records.extend(walk.run(levels.order(), &[], &mut timing, 0)?);
    }

    // ------------------------------------------------------------------
    // Endpoints: setup and hold.
    // ------------------------------------------------------------------
    /// What an endpoint is, kept as an index and named only when a report
    /// prints it.
    enum EndpointPin {
        /// A flip-flop's `D`: instance index.
        Capture(usize),
        /// A macro input: macro index.
        Macro(usize),
        /// A primary output.
        Output,
    }
    struct Endpoint {
        pin: EndpointPin,
        net: usize,
        setup: f64,
        setup_sigma: f64,
        hold: f64,
    }
    let endpoint_name = |ep: &Endpoint| match ep.pin {
        EndpointPin::Capture(i) => format!("{}/D", design.instance_name(i)),
        EndpointPin::Macro(m) => format!("{}/in", design.macros()[m].name),
        EndpointPin::Output => format!("PO {}", design.net_name(ep.net)),
    };
    let mut endpoints: Vec<Endpoint> = Vec::new();
    for i in 0..n_cells {
        let inst = design.instance_ids(i);
        if let Some(c) = &types[inst.cell_type].capture {
            endpoints.push(Endpoint {
                pin: EndpointPin::Capture(i),
                net: inst.inputs[c.pin] as usize,
                setup: c.setup,
                setup_sigma: c.setup_sigma,
                hold: c.hold,
            });
        }
    }
    for (m, mac) in design.macros().iter().enumerate() {
        for &net in &mac.inputs {
            endpoints.push(Endpoint {
                pin: EndpointPin::Macro(m),
                net,
                setup: mac.spec.setup * cfg.macro_delay_scale,
                setup_sigma: 0.0,
                hold: 0.0,
            });
        }
    }
    for &po in &design.primary_outputs {
        endpoints.push(Endpoint {
            pin: EndpointPin::Output,
            net: po,
            setup: 0.0,
            setup_sigma: 0.0,
            hold: 0.0,
        });
    }
    if endpoints.is_empty() {
        return Err(StaError::NoEndpoints);
    }

    let mut critical_delay = 0.0f64;
    let mut worst_endpoint: Option<&Endpoint> = None;
    let mut worst_hold = f64::INFINITY;
    let mut endpoint_delays: Vec<(f64, usize)> = Vec::new();
    for (idx, ep) in endpoints.iter().enumerate() {
        let t = timing[slot(ep.net)];
        if !t.reached {
            continue;
        }
        let path = t.max_arrival + ep.setup;
        endpoint_delays.push((path, idx));
        if path > critical_delay {
            critical_delay = path;
            worst_endpoint = Some(ep);
        }
        if t.min_arrival.is_finite() {
            worst_hold = worst_hold.min(t.min_arrival - ep.hold);
        }
    }
    let endpoint = worst_endpoint.map_or_else(String::new, endpoint_name);

    // Backtrace a path ending at `net`.
    let backtrace = |end_net: usize| -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut net = end_net;
        while let Some((inst_idx, from)) = timing[slot(net)].parent {
            let inst = design.instances().get(inst_idx as usize);
            let from = from as usize;
            let arrival = timing[slot(net)].max_arrival;
            path.push(PathStep {
                instance: inst.name.to_string(),
                cell: inst.cell.clone(),
                net: design.net_name(net).to_string(),
                incr: arrival - timing[slot(from)].max_arrival,
                arrival,
            });
            net = from;
        }
        path.push(PathStep {
            instance: "startpoint".to_string(),
            cell: "-".to_string(),
            net: design.net_name(net).to_string(),
            incr: 0.0,
            arrival: timing[slot(net)].max_arrival,
        });
        path.reverse();
        path
    };
    let path = worst_endpoint.map_or_else(Vec::new, |ep| backtrace(ep.net));

    // The N worst endpoints (PrimeTime's `report_timing -max_paths N`).
    endpoint_delays.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let worst_paths: Vec<EndpointSummary> = endpoint_delays
        .iter()
        .take(cfg.max_reported_paths)
        .map(|&(delay, idx)| EndpointSummary {
            endpoint: endpoint_name(&endpoints[idx]),
            path_delay: delay,
            slack: cfg.clock_period - delay,
            depth: backtrace(endpoints[idx].net).len(),
        })
        .collect();
    // Endpoint slack histogram (2.5 % bins of the critical delay).
    let bin = (critical_delay / 40.0).max(1e-15);
    let mut slack_histogram = vec![0usize; 41];
    for &(delay, _) in &endpoint_delays {
        let b = ((critical_delay - delay) / bin) as usize;
        slack_histogram[b.min(40)] += 1;
    }

    // Canonical order so serialized reports are byte-identical however the
    // degradations were discovered.
    let mut degraded_arcs = records;
    degraded_arcs.sort_by(|a, b| (&a.instance, &a.pin).cmp(&(&b.instance, &b.pin)));

    // ------------------------------------------------------------------
    // Statistical summary (only in k-sigma mode).
    // ------------------------------------------------------------------
    let statistical = cfg.slack_k_sigma.map(|k| {
        let ep_sigma = |ep: &Endpoint| -> f64 {
            let t = timing[slot(ep.net)];
            if !t.reached {
                return 0.0;
            }
            (t.max_variance + ep.setup_sigma * ep.setup_sigma).sqrt()
        };
        let critical_path_sigma = worst_endpoint.map_or(0.0, &ep_sigma);
        // Worst k-sigma slack over ALL endpoints: the derated critical
        // endpoint is not necessarily the nominal one when sigmas differ.
        let worst_slack_k_sigma = endpoint_delays
            .iter()
            .map(|&(delay, idx)| cfg.clock_period - (delay + k * ep_sigma(&endpoints[idx])))
            .fold(f64::INFINITY, f64::min);
        let path_sigmas = endpoint_delays
            .iter()
            .take(cfg.max_reported_paths)
            .map(|&(delay, idx)| {
                let ep = &endpoints[idx];
                let sigma = ep_sigma(ep);
                let t = timing[slot(ep.net)];
                PathSigma {
                    endpoint: endpoint_name(ep),
                    sigma,
                    slack_k_sigma: cfg.clock_period - (delay + k * sigma),
                    arcs_with_sigma: t.sigma_arcs as usize,
                    arcs_total: t.path_arcs as usize,
                }
            })
            .collect();
        StatisticalSummary {
            k_sigma: k,
            critical_path_sigma,
            critical_path_delay_k_sigma: critical_delay + k * critical_path_sigma,
            worst_slack_k_sigma: if worst_slack_k_sigma.is_finite() {
                worst_slack_k_sigma
            } else {
                cfg.clock_period - critical_delay
            },
            path_sigmas,
        }
    });

    Ok(TimingReport {
        corner: lib.name.clone(),
        temperature: lib.temperature,
        critical_path_delay: critical_delay,
        worst_paths,
        slack_histogram,
        worst_slack: cfg.clock_period - critical_delay,
        worst_hold_slack: if worst_hold.is_finite() {
            worst_hold
        } else {
            0.0
        },
        critical_path: path,
        endpoint,
        endpoint_count: endpoints.len(),
        degraded_arcs,
        audit: Default::default(),
        statistical,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use cryo_liberty::{
        Cell, FfSpec, Library, LogicFunction, Lut2, Pin, PowerArc, TimingArc, TimingSense,
    };
    use cryo_netlist::DesignBuilder;
    use cryo_spice::FaultPlan;

    /// Synthetic library: INV delay = 10 ps + 1 ps/fF·load; DFF clk→Q 50 ps,
    /// setup 30 ps, hold 5 ps.
    fn synth_lib() -> Library {
        let mut lib = Library::new("synth", 300.0, 0.7);
        let slews = vec![1e-12, 100e-12];
        let loads = vec![0.0, 100e-15];
        let table = |base: f64, per_f: f64| {
            let vals: Vec<f64> = slews
                .iter()
                .flat_map(|_s| loads.iter().map(move |l| base + per_f * l / 1e-15))
                .collect();
            Lut2::new(slews.clone(), loads.clone(), vals).unwrap()
        };
        let inv_fn = LogicFunction::from_eval(&["A"], |b| b & 1 == 0);
        for (name, base) in [("INVx1", 10e-12), ("INVx2", 8e-12), ("BUFx2", 12e-12)] {
            let f = if name.starts_with("BUF") {
                LogicFunction::from_eval(&["A"], |b| b & 1 != 0)
            } else {
                inv_fn.clone()
            };
            lib.add_cell(Cell {
                name: name.to_string(),
                area: 0.05,
                pins: vec![Pin::input("A", 1e-15), Pin::output("Y", f)],
                arcs: vec![TimingArc {
                    related_pin: "A".into(),
                    pin: "Y".into(),
                    kind: ArcKind::Combinational,
                    sense: TimingSense::NegativeUnate,
                    cell_rise: table(base, 1e-12),
                    cell_fall: table(base, 1e-12),
                    rise_transition: table(5e-12, 0.2e-12),
                    fall_transition: table(5e-12, 0.2e-12),
                    sigma: None,
                }],
                power_arcs: vec![PowerArc {
                    related_pin: "A".into(),
                    pin: "Y".into(),
                    rise_energy: Lut2::constant(1e-18),
                    fall_energy: Lut2::constant(1e-18),
                }],
                leakage_states: vec![(0, 1e-9)],
                ff: None,
                drive: 1,
            });
        }
        let dff_fn = LogicFunction::from_eval(&["D"], |b| b & 1 != 0);
        lib.add_cell(Cell {
            name: "DFFx1".to_string(),
            area: 0.2,
            pins: vec![
                Pin::input("D", 1e-15),
                {
                    let mut p = Pin::input("CLK", 1e-15);
                    p.is_clock = true;
                    p
                },
                Pin::output("Q", dff_fn),
            ],
            arcs: vec![
                TimingArc {
                    related_pin: "CLK".into(),
                    pin: "Q".into(),
                    kind: ArcKind::ClockToQ,
                    sense: TimingSense::NonUnate,
                    cell_rise: table(50e-12, 1e-12),
                    cell_fall: table(50e-12, 1e-12),
                    rise_transition: table(5e-12, 0.2e-12),
                    fall_transition: table(5e-12, 0.2e-12),
                    sigma: None,
                },
                TimingArc {
                    related_pin: "CLK".into(),
                    pin: "D".into(),
                    kind: ArcKind::Setup,
                    sense: TimingSense::NonUnate,
                    cell_rise: Lut2::constant(30e-12),
                    cell_fall: Lut2::constant(30e-12),
                    rise_transition: Lut2::constant(0.0),
                    fall_transition: Lut2::constant(0.0),
                    sigma: None,
                },
                TimingArc {
                    related_pin: "CLK".into(),
                    pin: "D".into(),
                    kind: ArcKind::Hold,
                    sense: TimingSense::NonUnate,
                    cell_rise: Lut2::constant(5e-12),
                    cell_fall: Lut2::constant(5e-12),
                    rise_transition: Lut2::constant(0.0),
                    fall_transition: Lut2::constant(0.0),
                    sigma: None,
                },
            ],
            power_arcs: vec![],
            leakage_states: vec![(0, 2e-9)],
            ff: Some(FfSpec {
                clocked_on: "CLK".into(),
                next_state: "D".into(),
                clear: None,
            }),
            drive: 1,
        });
        lib
    }

    #[test]
    fn inverter_chain_delay_adds_up() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("chain");
        let mut x = b.input("in");
        for _ in 0..4 {
            x = b.inv(x, 1);
        }
        b.mark_output(x);
        let d = b.finish();
        let report = analyze(&d, &lib, &StaConfig::default()).unwrap();
        // Each stage: 10 ps + load-dependent term (one INV sink = 1 fF plus
        // wire). Expect ≈ 4 × ~11.4 ps.
        assert!(
            report.critical_path_delay > 40e-12 && report.critical_path_delay < 60e-12,
            "delay = {:.2} ps",
            report.critical_path_delay * 1e12
        );
        // Path has startpoint + 4 stages.
        assert_eq!(report.critical_path.len(), 5);
    }

    #[test]
    fn register_to_register_includes_clkq_and_setup() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("r2r");
        let clk = b.clock_input("clk");
        let din = b.input("din");
        let q1 = b.dff(din, clk, 1);
        let mut x = q1;
        for _ in 0..2 {
            x = b.inv(x, 1);
        }
        let _q2 = b.dff(x, clk, 1);
        let d = b.finish();
        let report = analyze(&d, &lib, &StaConfig::default()).unwrap();
        // clk→Q (~50) + 2 × INV (~11) + setup (30) ≈ 102 ps.
        assert!(
            (95e-12..120e-12).contains(&report.critical_path_delay),
            "delay = {:.2} ps",
            report.critical_path_delay * 1e12
        );
        assert!(report.endpoint.contains("/D"));
        // Hold is clean: min path 2 INVs ≈ 22 ps > 5 ps hold.
        assert!(report.worst_hold_slack > 0.0);
    }

    #[test]
    fn deeper_chain_is_slower_and_fmax_inverts() {
        let lib = synth_lib();
        let build = |n: usize| {
            let mut b = DesignBuilder::new("chain");
            let mut x = b.input("in");
            for _ in 0..n {
                x = b.inv(x, 1);
            }
            b.mark_output(x);
            b.finish()
        };
        let r4 = analyze(&build(4), &lib, &StaConfig::default()).unwrap();
        let r16 = analyze(&build(16), &lib, &StaConfig::default()).unwrap();
        assert!(r16.critical_path_delay > 3.0 * r4.critical_path_delay);
        assert!(r16.fmax() < r4.fmax());
    }

    #[test]
    fn worst_paths_are_sorted_and_bounded() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("multi");
        let clk = b.clock_input("clk");
        let din = b.input("din");
        // Three register-to-register paths of different depths.
        let q = b.dff(din, clk, 1);
        for depth in [1usize, 3, 6] {
            let mut x = q;
            for _ in 0..depth {
                x = b.inv(x, 1);
            }
            let _ = b.dff(x, clk, 1);
        }
        let d = b.finish();
        let report = analyze(&d, &lib, &StaConfig::default()).unwrap();
        assert!(report.worst_paths.len() >= 3);
        for w in report.worst_paths.windows(2) {
            assert!(w[0].path_delay >= w[1].path_delay, "sorted descending");
        }
        assert!(
            (report.worst_paths[0].path_delay - report.critical_path_delay).abs() < 1e-15,
            "first summary is the critical path"
        );
        let total: usize = report.slack_histogram.iter().sum();
        assert_eq!(
            total, report.endpoint_count,
            "every endpoint lands in a bin"
        );
    }

    #[test]
    fn unmapped_cell_is_reported() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("bad");
        let x = b.input("in");
        let _ = b.nand2(x, x, 1); // NAND2x1 not in the synthetic library
        let d = b.finish();
        assert!(matches!(
            analyze(&d, &lib, &StaConfig::default()),
            Err(StaError::UnmappedCell { .. })
        ));
    }

    #[test]
    fn slack_against_period() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("chain");
        let mut x = b.input("in");
        for _ in 0..4 {
            x = b.inv(x, 1);
        }
        b.mark_output(x);
        let d = b.finish();
        let cfg = StaConfig {
            clock_period: 1e-9,
            ..StaConfig::default()
        };
        let report = analyze(&d, &lib, &cfg).unwrap();
        assert!(report.worst_slack > 0.0, "1 ns period is easy to meet");
        let zero = analyze(&d, &lib, &StaConfig::default()).unwrap();
        assert!(zero.worst_slack < 0.0, "0 ns period is never met");
    }

    #[test]
    fn missing_cell_borrows_a_drive_sibling_with_provenance() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("deg");
        let x = b.input("in");
        let y = b.inv(x, 4); // INVx4 absent from the library
        let z = b.inv(y, 1);
        b.mark_output(z);
        let d = b.finish();
        // Fail policy keeps the pre-degradation contract.
        assert!(matches!(
            analyze(&d, &lib, &StaConfig::default()),
            Err(StaError::UnmappedCell { .. })
        ));
        let cfg = StaConfig {
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.25 },
            ..StaConfig::default()
        };
        let report = analyze(&d, &lib, &cfg).unwrap();
        assert!(report.is_degraded());
        assert_eq!(report.degraded_arcs.len(), 1);
        let deg = &report.degraded_arcs[0];
        assert_eq!(deg.cell, "INVx4");
        assert_eq!(deg.cause, DegradeCause::MissingCell);
        assert_eq!(
            deg.resolution,
            DegradeResolution::borrowed("INVx1", 0.25),
            "nearest drive, then first name"
        );
        // The stand-in is pessimistic: the same chain built entirely from
        // the donor is faster.
        let mut b2 = DesignBuilder::new("ref");
        let x2 = b2.input("in");
        let y2 = b2.inv(x2, 1);
        let z2 = b2.inv(y2, 1);
        b2.mark_output(z2);
        let reference = analyze(&b2.finish(), &lib, &StaConfig::default()).unwrap();
        assert!(
            report.critical_path_delay > reference.critical_path_delay,
            "degraded {} ps vs real {} ps",
            report.critical_path_delay * 1e12,
            reference.critical_path_delay * 1e12
        );
        assert!(report.path_report().contains("WARNING"));
    }

    #[test]
    fn orphan_cell_falls_back_to_the_pessimistic_bound() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("orphan");
        let x = b.input("in");
        let y = b.nand2(x, x, 1); // NAND2x1: absent, and no NAND2 sibling
        b.mark_output(y);
        let d = b.finish();
        for policy in [
            MissingArcPolicy::BorrowSibling { margin: 0.1 },
            MissingArcPolicy::PessimisticBound,
        ] {
            let cfg = StaConfig {
                missing_arc_policy: policy,
                ..StaConfig::default()
            };
            let report = analyze(&d, &lib, &cfg).unwrap();
            assert_eq!(report.degraded_arcs.len(), 1, "{policy:?}");
            assert_eq!(
                report.degraded_arcs[0].resolution,
                DegradeResolution::bound(),
                "{policy:?}: no donor arc exists, so the bound applies"
            );
            // The bound is BOUND_PESSIMISM x the slowest real arc, so it
            // dominates any single-gate delay in this library (~10 ps).
            assert!(report.degraded_arcs[0].assumed_delay >= 20e-12);
        }
    }

    #[test]
    fn injected_lookup_fault_respects_policy() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("inj");
        let mut x = b.input("in");
        for _ in 0..3 {
            x = b.inv(x, 1);
        }
        b.mark_output(x);
        let d = b.finish();
        // The injection budget is per context and the engine labels one
        // context per instance, so scope the plan to a single instance to
        // kill exactly one arc.
        let victim = d.instance_name(1).to_string();
        let plan = FaultPlan {
            seed: 11,
            sta_lookup: 1.0,
            scope: Some(format!("sta:{victim}")),
            max_injections: Some(1),
            ..FaultPlan::default()
        };
        {
            let _g = fault::install_guard(plan.clone());
            assert!(matches!(
                analyze(&d, &lib, &StaConfig::default()),
                Err(StaError::ArcLookupFault { .. })
            ));
        }
        {
            let _g = fault::install_guard(plan);
            let cfg = StaConfig {
                missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.0 },
                ..StaConfig::default()
            };
            let report = analyze(&d, &lib, &cfg).unwrap();
            assert_eq!(fault::injection_count(), 1);
            assert_eq!(report.degraded_arcs.len(), 1);
            assert_eq!(report.degraded_arcs[0].cause, DegradeCause::InjectedFault);
            assert!(report.critical_path_delay > 0.0);
        }
        // With the injector gone the same analysis is clean again.
        let clean = analyze(&d, &lib, &StaConfig::default()).unwrap();
        assert!(!clean.is_degraded());
    }

    #[test]
    fn degraded_analysis_is_deterministic() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("det");
        let clk = b.clock_input("clk");
        let din = b.input("din");
        let q = b.dff(din, clk, 1);
        let y = b.inv(q, 4); // degraded stage
        let _ = b.dff(y, clk, 1);
        let d = b.finish();
        let cfg = StaConfig {
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.1 },
            ..StaConfig::default()
        };
        let a = analyze(&d, &lib, &cfg).unwrap();
        let b = analyze(&d, &lib, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "serialized reports are byte-identical"
        );
    }

    /// `synth_lib` with LVF sigma tables: every table's sigma is `frac`
    /// of the nominal table, entry by entry.
    fn synth_lib_with_sigma(frac: f64) -> Library {
        let mut lib = synth_lib();
        let cells: Vec<Cell> = lib
            .cells()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                for arc in &mut c.arcs {
                    arc.sigma = Some(cryo_liberty::ArcSigma {
                        cell_rise: arc.cell_rise.scaled(frac),
                        cell_fall: arc.cell_fall.scaled(frac),
                        rise_transition: arc.rise_transition.scaled(frac),
                        fall_transition: arc.fall_transition.scaled(frac),
                    });
                }
                c
            })
            .collect();
        for c in cells {
            lib.add_cell(c);
        }
        lib
    }

    #[test]
    fn statistical_mode_is_off_by_default_and_rss_accumulates() {
        let nominal_lib = synth_lib();
        let lvf_lib = synth_lib_with_sigma(0.10);
        let mut b = DesignBuilder::new("stat");
        let clk = b.clock_input("clk");
        let din = b.input("din");
        let q = b.dff(din, clk, 1);
        let mut x = q;
        for _ in 0..4 {
            x = b.inv(x, 1);
        }
        let _ = b.dff(x, clk, 1);
        let d = b.finish();

        // Default config: no statistical summary, even on an LVF library.
        let nominal = analyze(&d, &lvf_lib, &StaConfig::default()).unwrap();
        assert!(nominal.statistical.is_none());

        let cfg = StaConfig {
            clock_period: 1e-9,
            slack_k_sigma: Some(3.0),
            ..StaConfig::default()
        };
        let stat = analyze(&d, &lvf_lib, &cfg).unwrap();
        // The nominal numbers are untouched by statistical mode.
        let plain = analyze(
            &d,
            &lvf_lib,
            &StaConfig {
                clock_period: 1e-9,
                ..StaConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stat.critical_path_delay, plain.critical_path_delay);
        assert_eq!(stat.worst_slack, plain.worst_slack);

        let summary = stat
            .statistical
            .as_ref()
            .expect("k-sigma mode attaches a summary");
        assert_eq!(summary.k_sigma, 3.0);
        assert!(
            summary.critical_path_sigma > 0.0,
            "LVF arcs contribute sigma"
        );
        assert!(
            summary.worst_slack_k_sigma < stat.worst_slack,
            "derated slack is strictly tighter: {} vs {}",
            summary.worst_slack_k_sigma,
            stat.worst_slack
        );
        assert!(
            (summary.critical_path_delay_k_sigma
                - (stat.critical_path_delay + 3.0 * summary.critical_path_sigma))
                .abs()
                < 1e-18
        );
        // RSS, not linear: path sigma is below the sum of per-arc sigmas.
        // Every arc's sigma is 10% of its delay, so a linear accumulation
        // would put path sigma at ~10% of path delay (setup arc excluded).
        assert!(summary.critical_path_sigma < 0.10 * stat.critical_path_delay);
        // Provenance: the critical path is fully covered by LVF arcs.
        let worst = &summary.path_sigmas[0];
        assert_eq!(worst.endpoint, stat.worst_paths[0].endpoint);
        assert!(
            worst.arcs_total >= 5,
            "clk→Q + 4 INV stages: {}",
            worst.arcs_total
        );
        assert_eq!(worst.arcs_with_sigma, worst.arcs_total, "full LVF coverage");
        assert!(worst.slack_k_sigma <= stat.worst_paths[0].slack);

        // A sigma-less library in statistical mode: summary present, all
        // sigmas zero, derated slack equals nominal slack.
        let zero = analyze(&d, &nominal_lib, &cfg).unwrap();
        let zsum = zero.statistical.as_ref().unwrap();
        assert_eq!(zsum.critical_path_sigma, 0.0);
        assert_eq!(zsum.worst_slack_k_sigma, zero.worst_slack);
        assert_eq!(zsum.path_sigmas[0].arcs_with_sigma, 0);

        // Serialization: nominal reports must not mention the field at
        // all; statistical reports round-trip.
        let nominal_json = serde_json::to_string(&nominal).unwrap();
        assert!(!nominal_json.contains("statistical"));
        let stat_json = serde_json::to_string(&stat).unwrap();
        assert!(stat_json.contains("\"statistical\""));
        let back: TimingReport = serde_json::from_str(&stat_json).unwrap();
        assert_eq!(back, stat);
    }

    #[test]
    fn higher_sigma_library_derates_harder() {
        let mut b = DesignBuilder::new("ord");
        let clk = b.clock_input("clk");
        let din = b.input("din");
        let q = b.dff(din, clk, 1);
        let mut x = q;
        for _ in 0..3 {
            x = b.inv(x, 1);
        }
        let _ = b.dff(x, clk, 1);
        let d = b.finish();
        let cfg = StaConfig {
            clock_period: 1e-9,
            slack_k_sigma: Some(3.0),
            ..StaConfig::default()
        };
        let lo = analyze(&d, &synth_lib_with_sigma(0.05), &cfg).unwrap();
        let hi = analyze(&d, &synth_lib_with_sigma(0.15), &cfg).unwrap();
        let (lo_s, hi_s) = (lo.statistical.unwrap(), hi.statistical.unwrap());
        assert!(hi_s.critical_path_sigma > lo_s.critical_path_sigma);
        assert!(hi_s.worst_slack_k_sigma < lo_s.worst_slack_k_sigma);
        // Same nominal timing either way: sigma rides along, it does not
        // perturb the mean analysis.
        assert_eq!(lo.critical_path_delay, hi.critical_path_delay);
    }

    #[test]
    fn arcs_on_other_grids_time_like_per_table_lookups() {
        // INVx1 with slew-dependent 2×2 delays, a 1×1 rise transition and
        // a slower fall transition on another 2×2 grid.
        let mut lib = synth_lib();
        let mut inv = lib.cell("INVx1").unwrap().clone();
        let grid = |v: [f64; 4]| Lut2::new(vec![1e-12, 100e-12], vec![0.0, 100e-15], v.to_vec());
        let arc = &mut inv.arcs[0];
        arc.cell_rise = grid([10e-12, 20e-12, 30e-12, 45e-12]).unwrap();
        arc.cell_fall = grid([12e-12, 18e-12, 28e-12, 50e-12]).unwrap();
        arc.rise_transition = Lut2::constant(6e-12);
        arc.fall_transition = Lut2::new(
            vec![5e-12, 60e-12],
            vec![2e-15, 30e-15],
            vec![14e-12, 19e-12, 27e-12, 45e-12],
        )
        .unwrap();
        lib.add_cell(inv);
        let arc = &lib.cell("INVx1").unwrap().arcs[0];
        assert!(!BoundArc::new(arc, Some(0)).shared_axes);
        assert!(BoundArc::new(&synth_lib().cell("INVx1").unwrap().arcs[0], Some(0)).shared_axes);

        let mut b = DesignBuilder::new("grids");
        let mut x = b.input("in");
        for _ in 0..4 {
            x = b.inv(x, 1);
        }
        b.mark_output(x);
        let d = b.finish();
        let cfg = StaConfig::default();
        let report = analyze(&d, &lib, &cfg).unwrap();

        // The same chain timed with one lookup per table.
        let loads = d.net_loads(cfg.macro_input_cap, |_, _| 1e-15);
        let (mut arrival, mut slew) = (0.0, cfg.input_slew);
        let mut arrivals = Vec::new();
        for i in 0..4 {
            let load = loads[d.instance_ids(i).outputs[0] as usize];
            arrival += arc.worst_delay(slew, load);
            slew = worst_transition(arc, slew, load);
            arrivals.push(arrival);
        }
        assert_eq!(report.critical_path_delay, arrival);
        let steps: Vec<f64> = report.critical_path[1..]
            .iter()
            .map(|s| s.arrival)
            .collect();
        assert_eq!(steps, arrivals);
    }

    /// `synth_lib` plus a two-input `NAND2x2`.
    fn wide_lib() -> Library {
        let mut lib = synth_lib();
        let mut nand = lib.cell("INVx2").unwrap().clone();
        nand.name = "NAND2x2".into();
        nand.drive = 2;
        nand.pins = vec![
            Pin::input("A", 1e-15),
            Pin::input("B", 1.5e-15),
            Pin::output("Y", LogicFunction::from_eval(&["A", "B"], |b| b & 3 != 3)),
        ];
        let mut from_b = nand.arcs[0].clone();
        from_b.related_pin = "B".into();
        from_b.cell_rise = from_b.cell_rise.scaled(1.2);
        nand.arcs.push(from_b);
        lib.add_cell(nand);
        lib
    }

    /// Launch flops, then three levels of `width` instances each, then
    /// capture flops. Every 97th inverter of the last level is `INVx4`
    /// (absent from the library) when `missing`. The NAND level reads
    /// across the first level's chunks.
    fn wide_design(width: usize, missing: bool) -> Design {
        let mut b = DesignBuilder::new("wide");
        let clk = b.clock_input("clk");
        let ins: Vec<_> = (0..8).map(|k| b.input(&format!("in{k}"))).collect();
        let q: Vec<_> = (0..width).map(|j| b.dff(ins[j % 8], clk, 1)).collect();
        let x: Vec<_> = q.iter().map(|&q| b.inv(q, 1)).collect();
        let y: Vec<_> = (0..width)
            .map(|j| b.nand2(x[j], x[(j + width / 2 + 1) % width], 2))
            .collect();
        for (j, &y) in y.iter().enumerate() {
            let drive = if missing && j % 97 == 0 { 4 } else { 2 };
            let z = b.inv(y, drive);
            let _ = b.dff(z, clk, 1);
        }
        b.finish()
    }

    /// Three chunks of the widest level at 7 threads.
    const WIDE: usize = 3 * MIN_INSTANCES_PER_THREAD + 1000;

    /// The report, arc evaluations and fired faults of one analysis at
    /// each of 1, 2, 3 and 7 threads, under `plan`.
    fn at_thread_counts(
        d: &Design,
        lib: &Library,
        cfg: &StaConfig,
        plan: Option<&cryo_spice::FaultPlan>,
    ) -> Vec<(Result<TimingReport>, u64, u32)> {
        [1, 2, 3, 7]
            .into_iter()
            .map(|threads| {
                let _g = plan.map(|p| fault::install_guard(p.clone()));
                let _ = work::take();
                let report = analyze_on(d, lib, cfg, threads);
                (report, work::take().arc_evals, fault::injection_count())
            })
            .collect()
    }

    fn assert_all_equal(runs: &[(Result<TimingReport>, u64, u32)]) {
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
            if let (Ok(a), Ok(b)) = (&run.0, &runs[0].0) {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap()
                );
            }
        }
    }

    #[test]
    fn the_thread_count_changes_no_report() {
        let lib = wide_lib();
        let d = wide_design(WIDE, false);
        let seq: Vec<bool> = d
            .cell_types()
            .iter()
            .map(|t| t.name.starts_with("DFF"))
            .collect();
        let levels = d.levels(&seq);
        assert!(levels.single_driver());
        assert_eq!(levels.len(), 3);
        assert_eq!(
            work::split(levels.level(0).len(), 7, MIN_INSTANCES_PER_THREAD).len(),
            3
        );
        let runs = at_thread_counts(&d, &lib, &StaConfig::default(), None);
        assert_all_equal(&runs);
        let (report, evals, _) = &runs[0];
        let report = report.as_ref().unwrap();
        assert!(!report.is_degraded());
        assert_eq!(
            report.critical_path.len(),
            4,
            "a flop output, then three levels"
        );
        assert_eq!(
            *evals,
            (6 * WIDE) as u64,
            "two clk→Q (both flops launch), INV, two NAND arcs, INV"
        );
    }

    #[test]
    fn degraded_arcs_and_counts_are_the_same_at_any_thread_count() {
        let lib = wide_lib();
        let d = wide_design(WIDE, true);
        let plan = FaultPlan {
            seed: 5,
            sta_lookup: 0.01,
            ..FaultPlan::default()
        };
        let cfg = StaConfig {
            missing_arc_policy: MissingArcPolicy::BorrowSibling { margin: 0.1 },
            ..StaConfig::default()
        };
        let runs = at_thread_counts(&d, &lib, &cfg, Some(&plan));
        assert_all_equal(&runs);
        let (report, _, fired) = &runs[0];
        let degraded = &report.as_ref().unwrap().degraded_arcs;
        let injected = degraded
            .iter()
            .filter(|a| a.cause == DegradeCause::InjectedFault)
            .count();
        assert!(*fired > 100, "{fired} faults fired");
        assert_eq!(injected, *fired as usize);
        assert!(degraded.len() > injected, "missing INVx4 stand-ins too");
    }

    #[test]
    fn the_first_fault_in_serial_order_fails_at_any_thread_count() {
        let lib = wide_lib();
        let d = wide_design(WIDE, false);
        let plan = FaultPlan {
            seed: 4,
            sta_lookup: 0.0002,
            ..FaultPlan::default()
        };
        let runs = at_thread_counts(&d, &lib, &StaConfig::default(), Some(&plan));
        assert_all_equal(&runs);
        let (report, evals, fired) = &runs[0];
        let Err(StaError::ArcLookupFault { instance, .. }) = report else {
            panic!("{report:?}");
        };
        let seq: Vec<bool> = d
            .cell_types()
            .iter()
            .map(|t| t.name.starts_with("DFF"))
            .collect();
        let first_level = d.levels(&seq).level(0).to_vec();
        let at = first_level
            .iter()
            .position(|&i| d.instance_name(i as usize) == instance);
        assert!(
            at > Some(2 * first_level.len() / 3),
            "the fault lands in the first level's last chunk at any thread count above 1"
        );
        assert_eq!(*fired, 1, "the walk stops at the first fault");
        assert!(*evals < (6 * WIDE) as u64);
    }

    #[test]
    fn a_net_with_two_drivers_stays_on_one_thread() {
        let lib = wide_lib();
        let mut b = DesignBuilder::new("two");
        let clk = b.clock_input("clk");
        let ins: Vec<_> = (0..WIDE).map(|k| b.input(&format!("in{k}"))).collect();
        let x: Vec<_> = ins.iter().map(|&a| b.inv(a, 1)).collect();
        // A second driver on one net of the first level, from the second.
        let y = b.inv(x[7], 2);
        b.alias_with_buffer(y, x[WIDE - 1]);
        for &x in &x {
            let _ = b.dff(x, clk, 1);
        }
        let d = b.finish();
        let seq: Vec<bool> = d
            .cell_types()
            .iter()
            .map(|t| t.name.starts_with("DFF"))
            .collect();
        assert!(!d.levels(&seq).single_driver());
        let runs = at_thread_counts(&d, &lib, &StaConfig::default(), None);
        assert_all_equal(&runs);
        assert!(runs[0].0.is_ok());
    }

    #[test]
    fn arc_evaluations_are_counted() {
        let lib = synth_lib();
        let mut b = DesignBuilder::new("count");
        let mut x = b.input("in");
        for _ in 0..4 {
            x = b.inv(x, 1);
        }
        b.mark_output(x);
        let d = b.finish();
        let _ = work::take();
        analyze(&d, &lib, &StaConfig::default()).unwrap();
        assert!(
            work::take().arc_evals >= 4,
            "each chain stage evaluates at least one arc"
        );
    }
}
