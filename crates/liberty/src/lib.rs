#![warn(missing_docs)]
//! Timing/power library data model (NLDM) with a Liberty-style text format.
//!
//! This crate is the hand-off point between standard-cell characterization
//! (`cryo-cells`) and the signoff engines (`cryo-sta`, `cryo-power`) — the
//! role the Liberty `.lib` format plays between Synopsys PrimeLib and
//! PrimeTime/Voltus in the paper's flow.
//!
//! Contents:
//!
//! - [`Lut2`] — two-dimensional non-linear delay model tables indexed by
//!   input slew and output load, with bilinear interpolation and linear
//!   extrapolation.
//! - [`Cell`], [`Pin`], [`TimingArc`], [`PowerArc`] — the cell model:
//!   per-arc delay/transition/energy tables, per-state leakage, pin
//!   capacitances, and evaluable logic functions.
//! - [`Library`] — a characterized corner (name, temperature, voltage) with
//!   cell lookup and the delay statistics behind the paper's Fig. 5.
//! - `format` (module) — a Liberty-flavoured writer and parser that round-trips
//!   every model this crate can represent.
//! - [`audit`] — the signoff firewall's library invariants: finite tables,
//!   positive delays/slews, load-monotone delays, populated grids, and the
//!   cross-corner delay band, reported as structured [`Finding`]s.
//!
//! All internal units are SI: seconds, farads, volts, watts, joules.

pub mod audit;
pub mod cell;
pub mod format;
pub mod function;
pub mod library;
pub mod provenance;
pub mod table;

pub use audit::{
    audit_cell, audit_cross_corner, audit_cross_corner_nearest, audit_library,
    audit_lvf_cross_corner, mean_cell_delay, mean_cell_sigma, nearest_anchor, AuditConfig,
    AuditReport, Finding,
};
pub use cell::{
    ArcKind, ArcSigma, Cell, FfSpec, Pin, PinDirection, PowerArc, TimingArc, TimingSense,
};
pub use function::LogicFunction;
pub use library::{DelayHistogram, Library, LibraryStats};
pub use provenance::{Provenance, ResidualStats};
pub use table::{Located, Lut2};

use std::error::Error;
use std::fmt;

/// Errors for library construction, lookup, and parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum LibertyError {
    /// A lookup referenced a cell the library does not contain.
    UnknownCell {
        /// Requested cell name.
        name: String,
    },
    /// A lookup referenced a pin the cell does not contain.
    UnknownPin {
        /// Cell name.
        cell: String,
        /// Requested pin name.
        pin: String,
    },
    /// Table axes and values disagree in shape.
    MalformedTable {
        /// What went wrong.
        reason: String,
    },
    /// The Liberty-style parser hit unexpected input.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The library covers fewer of the expected cells than required.
    IncompleteLibrary {
        /// Library name.
        name: String,
        /// Achieved coverage fraction in `[0, 1]`.
        coverage: f64,
        /// Required coverage floor in `[0, 1]`.
        floor: f64,
        /// Expected cells the library is missing.
        missing: Vec<String>,
    },
}

impl fmt::Display for LibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibertyError::UnknownCell { name } => write!(f, "unknown cell {name}"),
            LibertyError::UnknownPin { cell, pin } => write!(f, "unknown pin {cell}/{pin}"),
            LibertyError::MalformedTable { reason } => write!(f, "malformed table: {reason}"),
            LibertyError::Parse { line, reason } => {
                write!(f, "liberty parse error at line {line}: {reason}")
            }
            LibertyError::IncompleteLibrary {
                name,
                coverage,
                floor,
                missing,
            } => write!(
                f,
                "library {name} covers {:.1} % of expected cells (floor {:.1} %); missing: {}",
                coverage * 100.0,
                floor * 100.0,
                missing.join(", ")
            ),
        }
    }
}

impl Error for LibertyError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LibertyError>;
