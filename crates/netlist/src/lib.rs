#![warn(missing_docs)]
//! Gate-level netlists, SRAM macros, and the Rocket-class RV64 SoC
//! generator.
//!
//! This crate stands in for the Chipyard RTL + commercial synthesis/P&R
//! steps of the paper's flow (Sec. V-A): it produces the *structural
//! artifact* those tools hand to signoff — a gate-level netlist mapped onto
//! the characterized cell library, with fanout-based wire parasitics and
//! SRAM macros for the caches — which `cryo-sta` and `cryo-power` then
//! analyze at 300 K and 10 K.
//!
//! - [`design`] — the netlist container: nets, cell instances, macro
//!   instances, connectivity queries, and design-rule checks.
//! - [`builder`] — gate-level construction helpers and word-level datapath
//!   generators (ripple/carry adders, shifters, comparators, multipliers,
//!   register banks, muxes).
//! - [`sram`] — the SRAM macro model with device-derived leakage and
//!   access-energy figures (the paper adds power to the ASAP7 IP the same
//!   way, from its own calibrated transistor model).
//! - [`soc`] — the five-stage RV64 SoC: fetch, decode, execute (ALU,
//!   shifter, multiplier, FPU approximation), memory (L1/L2 macros + tag
//!   compare), writeback, and clock distribution.

pub mod builder;
pub mod design;
pub mod soc;
pub mod sram;
pub mod verilog;

pub use builder::DesignBuilder;
pub use design::{
    CellType, Connectivity, Design, InstanceIds, InstanceRef, Levels, MacroInstance, NetId, PinRef,
};
pub use soc::{build_soc, SocConfig};
pub use sram::SramMacro;
pub use verilog::write_verilog;

use std::error::Error;
use std::fmt;

/// Errors from netlist construction and checking.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// An instance references a cell the target library does not provide.
    UnmappedCell {
        /// Instance name.
        instance: String,
        /// Missing cell name.
        cell: String,
    },
    /// A net has no driver or multiple drivers.
    DriverConflict {
        /// Net name.
        net: String,
        /// Number of drivers found.
        drivers: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnmappedCell { instance, cell } => {
                write!(f, "instance {instance} uses unmapped cell {cell}")
            }
            NetlistError::DriverConflict { net, drivers } => {
                write!(f, "net {net} has {drivers} drivers")
            }
        }
    }
}

impl Error for NetlistError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetlistError>;
