//! The gate-level design container.

use std::borrow::Cow;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::OnceLock;

use cryo_liberty::Library;
use cryo_spice::work;

use crate::sram::SramMacro;
use crate::{NetlistError, Result};

/// Fewest nets [`Design::net_loads`] hands a thread: below this, a
/// thread's start-up costs more than the loads it sums.
const MIN_NETS_PER_THREAD: usize = 16_384;

/// Identifier of a net within a [`Design`].
pub type NetId = usize;

/// A library cell as the netlist uses it: the cell name and its pin
/// names, stored once and shared by every instance of the type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellType {
    /// Library cell name, e.g. `NAND2x2`.
    pub name: String,
    /// Input pin names, in the cell's function bit order.
    pub inputs: Vec<String>,
    /// Output pin names.
    pub outputs: Vec<String>,
}

/// One standard-cell instance, as indices into its design's tables.
#[derive(Debug, Clone, Copy)]
struct Inst {
    cell_type: u32,
    region: u32,
    /// Offset of the first input net in `Design::pins`; the outputs
    /// follow the inputs.
    pins: u32,
    /// Clock net, or [`NO_CLOCK`].
    clock: u32,
}

/// [`Inst::clock`] of an instance without a clock pin.
const NO_CLOCK: u32 = u32::MAX;

/// Strings stored end to end in one buffer, with one end offset each.
#[derive(Debug, Clone, Default)]
struct Arena {
    text: String,
    ends: Vec<u32>,
}

impl Arena {
    /// Append the formatted string and return its index.
    fn push(&mut self, s: fmt::Arguments) -> usize {
        let _ = self.text.write_fmt(s);
        self.ends.push(u32_id(self.text.len()));
        self.ends.len() - 1
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

fn u32_id(i: usize) -> u32 {
    u32::try_from(i).expect("netlist tables are indexed by u32")
}

/// An SRAM macro instance (cache array, register file).
#[derive(Debug, Clone)]
pub struct MacroInstance {
    /// Instance name.
    pub name: String,
    /// The macro's electrical model.
    pub spec: SramMacro,
    /// Clock net.
    pub clock: NetId,
    /// Address/data/control input nets (timing endpoints).
    pub inputs: Vec<NetId>,
    /// Data output nets (timing startpoints).
    pub outputs: Vec<NetId>,
    /// Functional-block tag.
    pub region: String,
}

/// A flat gate-level design.
///
/// Instances are stored as indices: each holds its interned cell type and
/// region, an offset into one flat array of pin nets, and its clock net.
/// Net and instance names live end to end in two string arenas. The
/// connectivity index and the levels are built on first use and kept
/// until a net, an instance or a macro is added.
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// Design name.
    pub name: String,
    net_names: Arena,
    cell_types: Vec<CellType>,
    regions: Vec<String>,
    instances: Vec<Inst>,
    instance_names: Arena,
    pins: Vec<u32>,
    macros: Vec<MacroInstance>,
    /// Primary inputs.
    pub primary_inputs: Vec<NetId>,
    /// Primary outputs.
    pub primary_outputs: Vec<NetId>,
    /// The clock net, if the design is sequential.
    pub clock: Option<NetId>,
    /// [`Design::connectivity`], once built.
    conn: OnceLock<Connectivity>,
    /// [`Design::levels`], once built.
    levels: OnceLock<Levels>,
}

impl Design {
    /// Create an empty design.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Register a new net and return its id.
    pub fn add_net(&mut self, name: impl fmt::Display) -> NetId {
        self.reset_memos();
        self.net_names.push(format_args!("{name}"))
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    #[must_use]
    pub fn net_name(&self, id: NetId) -> &str {
        self.net_names.get(id)
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.ends.len()
    }

    /// Register a cell type and return its index.
    pub(crate) fn add_cell_type(&mut self, ty: CellType) -> u32 {
        self.cell_types.push(ty);
        u32_id(self.cell_types.len() - 1)
    }

    /// Index of `region`, registering it on first use.
    pub(crate) fn region_id(&mut self, region: &str) -> u32 {
        let i = self
            .regions
            .iter()
            .position(|r| r == region)
            .unwrap_or_else(|| {
                self.regions.push(region.to_string());
                self.regions.len() - 1
            });
        u32_id(i)
    }

    /// Add a cell instance: its name, cell type, region, the nets of its
    /// inputs then its outputs (in the cell type's pin order), and its
    /// clock.
    pub(crate) fn add_instance(
        &mut self,
        name: fmt::Arguments,
        cell_type: u32,
        region: u32,
        nets: impl IntoIterator<Item = NetId>,
        clock: Option<NetId>,
    ) {
        self.reset_memos();
        self.instance_names.push(name);
        self.instances.push(Inst {
            cell_type,
            region,
            pins: u32_id(self.pins.len()),
            clock: clock.map_or(NO_CLOCK, u32_id),
        });
        self.pins.extend(nets.into_iter().map(u32_id));
    }

    /// Add a macro instance.
    pub fn add_macro(&mut self, m: MacroInstance) {
        self.reset_memos();
        self.macros.push(m);
    }

    /// Drop the connectivity index and the levels: the mutation at hand
    /// can change both.
    fn reset_memos(&mut self) {
        self.conn.take();
        self.levels.take();
    }

    /// Cell instances.
    #[must_use]
    pub fn instances(&self) -> Instances<'_> {
        Instances { design: self }
    }

    /// Name of cell instance `i`.
    #[must_use]
    pub fn instance_name(&self, i: usize) -> &str {
        self.instance_names.get(i)
    }

    /// Cell instance `i` as indices only, for passes over the whole
    /// netlist: it reads no name, which [`Design::instances`] does.
    #[inline]
    #[must_use]
    pub fn instance_ids(&self, i: usize) -> InstanceIds<'_> {
        let inst = self.instances[i];
        let n_in = self.cell_types[inst.cell_type as usize].inputs.len();
        let n_out = self.cell_types[inst.cell_type as usize].outputs.len();
        let (inputs, outputs) = self.pins[inst.pins as usize..][..n_in + n_out].split_at(n_in);
        InstanceIds {
            cell_type: inst.cell_type as usize,
            region: inst.region as usize,
            inputs,
            outputs,
        }
    }

    /// The distinct cell types the instances use, in first-use order.
    #[must_use]
    pub fn cell_types(&self) -> &[CellType] {
        &self.cell_types
    }

    /// The region tags, in first-use order.
    #[must_use]
    pub fn regions(&self) -> &[String] {
        &self.regions
    }

    /// Macro instances.
    #[must_use]
    pub fn macros(&self) -> &[MacroInstance] {
        &self.macros
    }

    /// Total standard-cell instance count.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.instances.len()
    }

    /// Estimated wire capacitance of a net from its fanout (placement
    /// parasitic model: base routing plus per-sink stubs), farads.
    #[must_use]
    pub fn wire_cap(&self, fanout: usize) -> f64 {
        0.06e-15 + 0.11e-15 * fanout as f64
    }

    /// The net → drivers and net → loads index, built on the first call
    /// and kept until the design changes.
    ///
    /// Each net lists its loads in a fixed order: cell instances ascending,
    /// each with its inputs in pin order and then its clock, then macros
    /// ascending, each with its inputs and then its clock. Drivers follow
    /// the same instance-then-macro order.
    #[must_use]
    pub fn connectivity(&self) -> &Connectivity {
        self.conn.get_or_init(|| self.build_connectivity())
    }

    fn build_connectivity(&self) -> Connectivity {
        let n = self.net_count();
        let (load_start, loads) = csr(n, PinRef::Macro { index: 0 }, |emit| {
            for (i, inst) in self.instances.iter().enumerate() {
                let instance = u32_id(i);
                let ins = self.instance_ids(i).inputs;
                for (k, &net) in ins.iter().enumerate() {
                    emit(
                        net as usize,
                        PinRef::Cell {
                            instance,
                            pin: k as u8,
                        },
                    );
                }
                if inst.clock != NO_CLOCK {
                    emit(
                        inst.clock as usize,
                        PinRef::Cell {
                            instance,
                            pin: ins.len() as u8,
                        },
                    );
                }
            }
            for (m, mac) in self.macros.iter().enumerate() {
                let index = u32_id(m);
                for &net in mac.inputs.iter().chain([&mac.clock]) {
                    emit(net, PinRef::Macro { index });
                }
            }
        });
        let (driver_start, drivers) = csr(n, PinRef::Macro { index: 0 }, |emit| {
            for i in 0..self.instances.len() {
                for (k, &net) in self.instance_ids(i).outputs.iter().enumerate() {
                    emit(
                        net as usize,
                        PinRef::Cell {
                            instance: u32_id(i),
                            pin: k as u8,
                        },
                    );
                }
            }
            for (m, mac) in self.macros.iter().enumerate() {
                for &net in &mac.outputs {
                    emit(net, PinRef::Macro { index: u32_id(m) });
                }
            }
        });
        Connectivity {
            load_start,
            loads,
            driver_start,
            drivers,
        }
    }

    /// Capacitive load of every net, farads: its sink pin capacitances
    /// summed in [`Connectivity`] order (which keeps the float sum
    /// bit-stable), plus the [`Design::wire_cap`] estimate.
    ///
    /// `pin_cap(t, pin)` is the capacitance of pin `pin` of cell type `t`,
    /// asked once per type for each input and `CLK`; every macro pin
    /// presents `macro_cap`.
    ///
    /// The nets are split into contiguous chunks over
    /// [`work::threads`] threads, each filling its own nets' loads, so the
    /// loads are the same bits at any thread count.
    #[must_use]
    pub fn net_loads(&self, macro_cap: f64, pin_cap: impl Fn(usize, &str) -> f64) -> Vec<f64> {
        self.net_loads_on(work::threads(), macro_cap, pin_cap)
    }

    fn net_loads_on(
        &self,
        threads: usize,
        macro_cap: f64,
        pin_cap: impl Fn(usize, &str) -> f64,
    ) -> Vec<f64> {
        let conn = self.connectivity();
        let caps: Vec<Vec<f64>> = self
            .cell_types
            .iter()
            .enumerate()
            .map(|(t, ty)| {
                let pins = ty.inputs.iter().map(String::as_str).chain(["CLK"]);
                pins.map(|pin| pin_cap(t, pin)).collect()
            })
            .collect();
        let cap = |load: &PinRef| match *load {
            PinRef::Cell { instance, pin } => {
                caps[self.instances[instance as usize].cell_type as usize][usize::from(pin)]
            }
            PinRef::Macro { .. } => macro_cap,
        };
        let net_load = |net| {
            let loads = conn.loads(net);
            loads.iter().fold(0.0, |sum, load| sum + cap(load)) + self.wire_cap(loads.len())
        };
        let mut loads = vec![0.0; self.net_count()];
        let ranges = work::split(loads.len(), threads, MIN_NETS_PER_THREAD);
        let pieces = loads.chunks_mut(ranges[0].len().max(1));
        let filled = work::fork(ranges.into_iter().zip(pieces).collect(), |(nets, piece)| {
            for (load, net) in piece.iter_mut().zip(nets) {
                *load = net_load(net);
            }
            Ok::<(), Infallible>(())
        });
        let Ok(_) = filled;
        loads
    }

    /// The combinational instances in [`Levels`], for the sequential cell
    /// types `seq[t]` marks (their instances break paths and are left out,
    /// as are instances on or behind a combinational loop).
    ///
    /// The levels are built on the first call and kept until the design
    /// changes. STA and toggle simulation pass the same mask and share
    /// one build; a call with another mask than the kept one's gets a
    /// build of its own.
    #[must_use]
    pub fn levels(&self, seq: &[bool]) -> Cow<'_, Levels> {
        let kept = self.levels.get_or_init(|| self.build_levels(seq));
        if kept.seq == seq {
            Cow::Borrowed(kept)
        } else {
            Cow::Owned(self.build_levels(seq))
        }
    }

    fn build_levels(&self, seq: &[bool]) -> Levels {
        let (conn, n) = (self.connectivity(), self.cell_count());
        let comb = |i: usize| !seq[self.instances[i].cell_type as usize];
        // The first combinational driver of each net.
        let driver: Vec<u32> = (0..self.net_count())
            .map(|net| {
                conn.drivers(net)
                    .iter()
                    .find_map(|d| match *d {
                        PinRef::Cell { instance, .. } if comb(instance as usize) => Some(instance),
                        _ => None,
                    })
                    .unwrap_or(u32::MAX)
            })
            .collect();
        let driver = &driver;
        let (fan_start, fanout) = csr(n, 0u32, |emit| {
            for i in (0..n).filter(|&i| comb(i)) {
                for &net in self.instance_ids(i).inputs {
                    let src = driver[net as usize];
                    if src != u32::MAX {
                        emit(src as usize, u32_id(i));
                    }
                }
            }
        });
        let mut indegree = vec![0u32; n];
        for &i in &fanout {
            indegree[i as usize] += 1;
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut comb_count = 0;
        for i in (0..n).filter(|&i| comb(i)) {
            comb_count += 1;
            if indegree[i] == 0 {
                order.push(u32_id(i));
            }
        }
        // FIFO Kahn, one generation at a time: a generation is a level.
        // Each level's output nets are numbered as its instances are taken;
        // a net with several drivers keeps its first one's number.
        let mut slot = vec![u32::MAX; self.net_count()];
        let (mut level_start, mut slot_start) = (vec![0], vec![0]);
        let (mut head, mut taken) = (0, 0);
        while head < order.len() {
            let end = order.len();
            for pos in head..end {
                let i = order[pos] as usize;
                for &net in self.instance_ids(i).outputs {
                    if slot[net as usize] == u32::MAX {
                        slot[net as usize] = taken;
                        taken += 1;
                    }
                }
                for &next in &fanout[fan_start[i] as usize..fan_start[i + 1] as usize] {
                    indegree[next as usize] -= 1;
                    if indegree[next as usize] == 0 {
                        order.push(next);
                    }
                }
            }
            head = end;
            level_start.push(u32_id(end));
            slot_start.push(taken);
        }
        // The nets no levelled instance drives take the first slots, in
        // net order; the levels' outputs follow them.
        let undriven = u32_id(self.net_count()) - taken;
        let mut free = 0;
        for s in &mut slot {
            if *s == u32::MAX {
                *s = free;
                free += 1;
            } else {
                *s += undriven;
            }
        }
        slot_start.iter_mut().for_each(|s| *s += undriven);
        Levels {
            seq: seq.to_vec(),
            comb: comb_count,
            order,
            level_start,
            slot,
            slot_start,
            single_driver: (0..self.net_count()).all(|net| conn.drivers(net).len() <= 1),
        }
    }

    /// The first instance, in instance order, whose cell type `pick`
    /// selects: the instance an unmapped-cell error names. `pick(t)` is
    /// asked once per cell type `t`, and the instances are scanned only if
    /// it selects one.
    #[must_use]
    pub fn first_instance_of(&self, pick: impl Fn(usize) -> bool) -> Option<InstanceRef<'_>> {
        let picked: Vec<bool> = (0..self.cell_types.len()).map(pick).collect();
        if !picked.contains(&true) {
            return None;
        }
        let i = self
            .instances
            .iter()
            .position(|inst| picked[inst.cell_type as usize])?;
        Some(self.instances().get(i))
    }

    /// Check every instance maps to a library cell, every internal net has
    /// exactly one driver, and inputs drive nothing twice.
    ///
    /// # Errors
    ///
    /// The first violated rule as a [`NetlistError`].
    pub fn check(&self, lib: &Library) -> Result<()> {
        let unmapped = |t: usize| lib.cell(&self.cell_types[t].name).is_err();
        if let Some(inst) = self.first_instance_of(unmapped) {
            return Err(NetlistError::UnmappedCell {
                instance: inst.name.to_string(),
                cell: inst.cell.clone(),
            });
        }
        let conn = self.connectivity();
        for net in 0..self.net_count() {
            let n_drivers = conn.drivers(net).len()
                + usize::from(self.primary_inputs.contains(&net))
                + usize::from(self.clock == Some(net));
            if n_drivers != 1 && !(n_drivers == 0 && conn.loads(net).is_empty()) {
                return Err(NetlistError::DriverConflict {
                    net: self.net_name(net).to_string(),
                    drivers: n_drivers,
                });
            }
        }
        Ok(())
    }

    /// Per-region instance counts (reporting).
    #[must_use]
    pub fn region_histogram(&self) -> HashMap<String, usize> {
        let mut counts = vec![0usize; self.regions.len()];
        for inst in &self.instances {
            counts[inst.region as usize] += 1;
        }
        let used = self.regions.iter().zip(counts).filter(|&(_, n)| n > 0);
        used.map(|(r, n)| (r.clone(), n)).collect()
    }
}

/// Group the `(row, item)` pairs `visit` emits by row, in CSR form: row
/// `r` holds `items[start[r]..start[r + 1]]` in emission order. `visit`
/// runs twice (count, then place) and must emit the same pairs each time.
fn csr<T: Copy>(
    rows: usize,
    fill: T,
    visit: impl Fn(&mut dyn FnMut(usize, T)),
) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; rows + 1];
    visit(&mut |row, _| start[row + 1] += 1);
    for r in 0..rows {
        start[r + 1] += start[r];
    }
    let mut items = vec![fill; start[rows] as usize];
    let mut next = start.clone();
    visit(&mut |row, item| {
        items[next[row] as usize] = item;
        next[row] += 1;
    });
    (start, items)
}

/// The cell instances of a [`Design`], borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Instances<'a> {
    design: &'a Design,
}

impl<'a> Instances<'a> {
    /// Instance `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> InstanceRef<'a> {
        let d = self.design;
        let inst = d.instances[i];
        let ty = &d.cell_types[inst.cell_type as usize];
        let start = inst.pins as usize;
        InstanceRef {
            name: d.instance_names.get(i),
            cell: &ty.name,
            region: &d.regions[inst.region as usize],
            clock: (inst.clock != NO_CLOCK).then_some(inst.clock as usize),
            cell_type: inst.cell_type as usize,
            region_id: inst.region as usize,
            ty,
            nets: &d.pins[start..start + ty.inputs.len() + ty.outputs.len()],
        }
    }

    /// The instances in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = InstanceRef<'a>> + 'a {
        let all = *self;
        (0..self.design.instances.len()).map(move |i| all.get(i))
    }
}

/// A cell instance as indices, from [`Design::instance_ids`].
#[derive(Debug, Clone, Copy)]
pub struct InstanceIds<'a> {
    /// Index into [`Design::cell_types`].
    pub cell_type: usize,
    /// Index into [`Design::regions`].
    pub region: usize,
    /// Input nets, in pin order.
    pub inputs: &'a [u32],
    /// Output nets, in pin order.
    pub outputs: &'a [u32],
}

/// A standard-cell instance, borrowed from its [`Design`].
#[derive(Debug, Clone, Copy)]
pub struct InstanceRef<'a> {
    /// Instance name (hierarchical path, flattened).
    pub name: &'a str,
    /// Library cell name, e.g. `NAND2x2`: the cell type's own `String`, so
    /// callers that collect owned names clone it directly.
    pub cell: &'a String,
    /// Functional-block tag used by activity-based power analysis.
    pub region: &'a str,
    /// Clock connection for sequential cells.
    pub clock: Option<NetId>,
    /// Index into [`Design::cell_types`].
    pub cell_type: usize,
    /// Index into [`Design::regions`].
    pub region_id: usize,
    ty: &'a CellType,
    nets: &'a [u32],
}

impl<'a> InstanceRef<'a> {
    /// Input pin connections `(pin, net)`, in the cell's function bit order.
    pub fn inputs(&self) -> impl Iterator<Item = (&'a str, NetId)> + 'a {
        let nets = self.input_nets().iter().map(|&n| n as usize);
        self.ty.inputs.iter().map(String::as_str).zip(nets)
    }

    /// Output pin connections `(pin, net)`.
    pub fn outputs(&self) -> impl Iterator<Item = (&'a str, NetId)> + 'a {
        let nets = self.output_nets().iter().map(|&n| n as usize);
        self.ty.outputs.iter().map(String::as_str).zip(nets)
    }

    /// Input nets, in pin order.
    #[must_use]
    pub fn input_nets(&self) -> &'a [u32] {
        &self.nets[..self.ty.inputs.len()]
    }

    /// Output nets, in pin order.
    #[must_use]
    pub fn output_nets(&self) -> &'a [u32] {
        &self.nets[self.ty.inputs.len()..]
    }
}

/// One end of a net connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinRef {
    /// A cell instance pin. A load's `pin` counts the instance's inputs
    /// and then its clock pin `CLK`; a driver's counts its outputs.
    Cell {
        /// Index into [`Design::instances`].
        instance: u32,
        /// Pin index within the cell type.
        pin: u8,
    },
    /// A macro pin: an input or the clock of a load, a data output of a
    /// driver.
    Macro {
        /// Index into [`Design::macros`].
        index: u32,
    },
}

/// The combinational instances of a [`Design`] grouped by level, and its
/// nets numbered to match, from [`Design::levels`].
///
/// Level 0 holds the instances that no combinational instance drives, and
/// level `l + 1` those whose latest combinational driver is in level `l`:
/// the generations of a FIFO Kahn walk, so the levels read in order are
/// that walk's order. Each net has a *slot*: first the nets that no
/// levelled instance drives, in net order, then each level's output nets,
/// instance by instance in pin order. When every net has at most one
/// driver, level `l`'s outputs fill [`Levels::level_slots`]`(l)` and only
/// level `l` writes there, so a propagation can write a level's slots
/// while it reads the finished levels' below them.
#[derive(Debug, Clone)]
pub struct Levels {
    /// The sequential-type mask the levels were built for.
    seq: Vec<bool>,
    /// Combinational instances, levelled or not.
    comb: usize,
    /// The levelled instances, level by level.
    order: Vec<u32>,
    /// Level `l` is `order[level_start[l]..level_start[l + 1]]`.
    level_start: Vec<u32>,
    /// Slot of each net.
    slot: Vec<u32>,
    /// Level `l`'s outputs fill slots `slot_start[l]..slot_start[l + 1]`.
    slot_start: Vec<u32>,
    /// Whether no net has two drivers.
    single_driver: bool,
}

impl Levels {
    /// The levelled instances, level by level.
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.level_start.len() - 1
    }

    /// Whether there are no levels (no combinational instance is
    /// levelled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instances of level `l`.
    #[must_use]
    pub fn level(&self, l: usize) -> &[u32] {
        &self.order[self.level_start[l] as usize..self.level_start[l + 1] as usize]
    }

    /// The slots of level `l`'s output nets.
    #[must_use]
    pub fn level_slots(&self, l: usize) -> Range<usize> {
        self.slot_start[l] as usize..self.slot_start[l + 1] as usize
    }

    /// The slot of `net`.
    #[inline]
    #[must_use]
    pub fn slot(&self, net: NetId) -> usize {
        self.slot[net] as usize
    }

    /// Number of combinational instances. It exceeds the length of
    /// [`Levels::order`] when some are on or behind a loop.
    #[must_use]
    pub fn comb_count(&self) -> usize {
        self.comb
    }

    /// Whether every net has at most one driver, so that each slot has one
    /// writer, in its own level.
    #[must_use]
    pub fn single_driver(&self) -> bool {
        self.single_driver
    }
}

/// Net connectivity in CSR form (compressed sparse rows): one flat array
/// of loads and one of drivers, each with per-net start offsets.
#[derive(Debug, Clone)]
pub struct Connectivity {
    load_start: Vec<u32>,
    loads: Vec<PinRef>,
    driver_start: Vec<u32>,
    drivers: Vec<PinRef>,
}

impl Connectivity {
    /// The loads of `net`, in the order [`Design::connectivity`] documents.
    #[must_use]
    pub fn loads(&self, net: NetId) -> &[PinRef] {
        &self.loads[self.load_start[net] as usize..self.load_start[net + 1] as usize]
    }

    /// The drivers of `net`.
    #[must_use]
    pub fn drivers(&self, net: NetId) -> &[PinRef] {
        &self.drivers[self.driver_start[net] as usize..self.driver_start[net + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use crate::{DesignBuilder, SramMacro};

    use super::*;

    fn tiny_design() -> Design {
        let mut b = DesignBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.nand2(a, c, 1);
        b.mark_output(y);
        b.finish()
    }

    #[test]
    fn connectivity_index() {
        let d = tiny_design();
        let c = d.connectivity();
        let y = d.primary_outputs[0];
        assert_eq!(
            c.drivers(y),
            [PinRef::Cell {
                instance: 0,
                pin: 0
            }]
        );
        assert_eq!(
            c.loads(0),
            [PinRef::Cell {
                instance: 0,
                pin: 0
            }]
        );
        assert_eq!(
            c.loads(1),
            [PinRef::Cell {
                instance: 0,
                pin: 1
            }]
        );
        assert!(c.loads(y).is_empty());
    }

    /// The kept levels, which must be the memo rather than a build of
    /// their own: `[INVx1, BUFx2]` are both combinational.
    fn kept_levels(d: &Design) -> &Levels {
        match d.levels(&[false, false]) {
            Cow::Borrowed(levels) => levels,
            Cow::Owned(_) => panic!("the mask is the kept one's"),
        }
    }

    /// Every net's slot, in net order.
    fn slots(d: &Design) -> Vec<usize> {
        (0..d.net_count()).map(|n| kept_levels(d).slot(n)).collect()
    }

    #[test]
    fn connectivity_is_rebuilt_after_every_mutation() {
        let cell = |instance| PinRef::Cell { instance, pin: 0 };
        let mut b = DesignBuilder::new("grow");
        let (a, y) = (b.input("a"), b.net("y"));
        let n = b.inv(a, 1);
        let _ = b.buf(a, 2);
        assert_eq!(b.design().connectivity().loads(a), [cell(0), cell(1)]);
        assert_eq!(kept_levels(b.design()).order(), [0, 1]);
        assert_eq!(slots(b.design()), [0, 1, 2, 3], "a, y, then level 0");
        // A gate between existing nets: no net is added with it.
        b.alias_with_buffer(a, y);
        let conn = b.design().connectivity();
        assert_eq!(conn.loads(a), [cell(0), cell(1), cell(2)]);
        assert_eq!(conn.drivers(y), [cell(2)]);
        assert_eq!(kept_levels(b.design()).order(), [0, 1, 2]);
        assert_eq!(slots(b.design()), [0, 3, 1, 2], "a, then level 0: n, m, y");
        // A gate behind the alias, in a level of its own.
        let z = b.inv(y, 1);
        let levels = kept_levels(b.design());
        assert_eq!(levels.level(1), [3]);
        assert_eq!(levels.slot(z), 4);
        assert!(levels.single_driver());
        // A macro that loads `a` and drives `n` as well.
        let clk = b.clock_input("clk");
        assert!(b.design().connectivity().loads(clk).is_empty());
        assert_eq!(slots(b.design()), [0, 4, 2, 3, 5, 1], "clk is undriven");
        b.add_macro_instance(MacroInstance {
            name: "rf".into(),
            spec: SramMacro::regfile("rf", 1.0),
            clock: clk,
            inputs: vec![a],
            outputs: vec![n],
            region: "core".into(),
        });
        let conn = b.design().connectivity();
        assert_eq!(
            conn.loads(a),
            [cell(0), cell(1), cell(2), PinRef::Macro { index: 0 }]
        );
        assert_eq!(conn.loads(clk), [PinRef::Macro { index: 0 }]);
        assert!(!kept_levels(b.design()).single_driver());
        // A net added after the index was built.
        let mut d = b.finish();
        let late = d.add_net("late");
        assert!(d.connectivity().loads(late).is_empty());
        assert!(d.connectivity().drivers(late).is_empty());
        assert_eq!(slots(&d), [0, 5, 3, 4, 6, 1, 2], "late is undriven too");
    }

    #[test]
    fn net_loads_are_the_same_bits_at_any_thread_count() {
        let mut b = DesignBuilder::new("loads");
        let ins: Vec<_> = (0..64).map(|k| b.input(&format!("in{k}"))).collect();
        let mut row = ins.clone();
        while b.design().net_count() < 3 * MIN_NETS_PER_THREAD + 1000 {
            row = (0..row.len())
                .map(|k| b.nand2(row[k], row[(k * 7 + 3) % row.len()], 1 + k as u32 % 2))
                .collect();
        }
        let d = b.finish();
        assert_eq!(work::split(d.net_count(), 7, MIN_NETS_PER_THREAD).len(), 3);
        let pin_cap = |t: usize, pin: &str| 0.3e-15 * (t + 1) as f64 + 0.07e-15 * pin.len() as f64;
        let bits = |threads| -> Vec<u64> {
            let loads = d.net_loads_on(threads, 2.0e-15, pin_cap);
            loads.into_iter().map(f64::to_bits).collect()
        };
        let serial = bits(1);
        assert_eq!(serial.len(), d.net_count());
        for threads in [2, 3, 7] {
            assert!(bits(threads) == serial, "{threads} threads");
        }
    }

    #[test]
    fn tiny_soc_levels_are_the_fifo_kahn_order() {
        use std::collections::VecDeque;
        let d = crate::build_soc(&crate::SocConfig::tiny());
        let seq: Vec<bool> = d
            .cell_types()
            .iter()
            .map(|t| t.name.starts_with("DFF"))
            .collect();
        let comb = |i: usize| !seq[d.instance_ids(i).cell_type];
        // Reference: each net's first combinational driver by instance,
        // every combinational input edge in instance then pin order, and a
        // plain FIFO queue.
        let mut driver = vec![None; d.net_count()];
        for i in (0..d.cell_count()).filter(|&i| comb(i)) {
            for &net in d.instance_ids(i).outputs {
                driver[net as usize].get_or_insert(i);
            }
        }
        let mut fanout = vec![Vec::new(); d.cell_count()];
        let mut indegree = vec![0; d.cell_count()];
        for i in (0..d.cell_count()).filter(|&i| comb(i)) {
            for &net in d.instance_ids(i).inputs {
                if let Some(src) = driver[net as usize] {
                    fanout[src].push(i);
                    indegree[i] += 1;
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..d.cell_count())
            .filter(|&i| comb(i) && indegree[i] == 0)
            .collect();
        let (mut order, mut depth) = (Vec::new(), vec![0; d.cell_count()]);
        while let Some(i) = queue.pop_front() {
            order.push(i as u32);
            for &next in &fanout[i] {
                depth[next] = depth[next].max(depth[i] + 1);
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push_back(next);
                }
            }
        }
        let levels = d.levels(&seq);
        assert_eq!(levels.order(), order);
        assert_eq!(levels.comb_count(), order.len(), "the tiny SoC has no loop");
        assert!(levels.single_driver());
        // Level `l` holds exactly the instances `l` steps deep, and its
        // output nets fill its slots in order.
        let mut next_slot = levels.level_slots(0).start;
        for l in 0..levels.len() {
            assert!(levels.level(l).iter().all(|&i| depth[i as usize] == l));
            for &i in levels.level(l) {
                for &net in d.instance_ids(i as usize).outputs {
                    assert_eq!(levels.slot(net as usize), next_slot);
                    next_slot += 1;
                }
            }
            assert_eq!(levels.level_slots(l).end, next_slot);
        }
        assert_eq!(next_slot, d.net_count());
        let widest = (0..levels.len()).map(|l| levels.level(l).len()).max();
        assert!(
            widest < Some(4096),
            "the golden never reaches a second thread"
        );
    }

    #[test]
    fn instance_ids_match_instance_refs() {
        let d = tiny_design();
        let (ids, inst) = (d.instance_ids(0), d.instances().get(0));
        assert_eq!(ids.cell_type, inst.cell_type);
        assert_eq!(ids.region, inst.region_id);
        assert_eq!(ids.inputs, inst.input_nets());
        assert_eq!(ids.outputs, inst.output_nets());
    }

    #[test]
    fn instances_read_back_their_pins() {
        let d = tiny_design();
        let inst = d.instances().get(0);
        assert_eq!(inst.cell, "NAND2x1");
        assert_eq!(inst.name, d.instance_name(0));
        assert_eq!(inst.inputs().collect::<Vec<_>>(), [("A", 0), ("B", 1)]);
        assert_eq!(
            inst.outputs().collect::<Vec<_>>(),
            [("Y", d.primary_outputs[0])]
        );
        assert_eq!(inst.clock, None);
    }

    #[test]
    fn wire_cap_grows_with_fanout() {
        let d = tiny_design();
        assert!(d.wire_cap(4) > d.wire_cap(1));
        assert!(d.wire_cap(0) > 0.0);
    }

    #[test]
    fn region_histogram_counts() {
        let d = tiny_design();
        let h = d.region_histogram();
        assert_eq!(h["core"], 1);
    }
}
