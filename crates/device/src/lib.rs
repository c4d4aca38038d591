#![warn(missing_docs)]
//! Cryogenic-aware compact model for 5-nm FinFET transistors.
//!
//! This crate is the bottom of the `cryo-soc` stack. It provides:
//!
//! - [`ModelCard`] — a BSIM-CMG-flavoured parameter set covering the effects
//!   the paper calibrates: work-function/interface-trap subthreshold
//!   behaviour, field-dependent mobility, series resistance, drain-induced
//!   barrier lowering, velocity saturation, and the cryogenic extensions
//!   (band-tail effective temperature, threshold-voltage shift, scattering
//!   temperature coefficients).
//! - [`FinFet`] — an evaluated device at a given temperature and fin count,
//!   producing smooth drain current and terminal capacitances suitable for
//!   Newton-based circuit simulation.
//! - [`silicon::VirtualWafer`] — the "measurement" substitute: a hidden
//!   reference device plus instrument noise, sampled at 300 K and 10 K.
//! - [`calibrate`] — staged parameter extraction that reproduces the paper's
//!   flow (subthreshold → mobility → series R → DIBL/velocity saturation →
//!   cryogenic coefficients) using a Nelder–Mead optimizer.
//! - [`metrics`] — figure-of-merit extraction (Vth, SS, Ion, Ioff) from I–V
//!   sweeps.
//!
//! # Example
//!
//! ```
//! use cryo_device::{FinFet, ModelCard, Polarity};
//!
//! let card = ModelCard::nominal(Polarity::N);
//! let dev300 = FinFet::new(&card, 300.0, 1);
//! let dev10 = FinFet::new(&card, 10.0, 1);
//! // Leakage collapses at cryogenic temperature, on-current barely moves.
//! let ioff_ratio = dev300.ids(0.0, 0.7) / dev10.ids(0.0, 0.7);
//! let ion_ratio = dev300.ids(0.7, 0.7) / dev10.ids(0.7, 0.7);
//! assert!(ioff_ratio > 1e3);
//! assert!(ion_ratio > 0.5 && ion_ratio < 2.0);
//! ```

pub mod audit;
pub mod calibrate;
pub mod metrics;
pub mod model;
pub mod montecarlo;
pub mod optimize;
pub mod params;
pub mod silicon;
pub mod thermal;

pub use audit::{audit_cards, DeviceFinding};
pub use calibrate::{CalibrationReport, Calibrator};
pub use metrics::{CornerScalars, DeviceMetrics, IvCurve, IvDataset};
pub use model::FinFet;
pub use montecarlo::{
    corner_die, mismatch_run, sample_die, stats, MismatchResult, Spread, VariationModel,
};
pub use params::{ModelCard, Polarity};
pub use silicon::VirtualWafer;

use std::error::Error;
use std::fmt;

/// Error type for device-model operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A model-card parameter is outside its physical range.
    InvalidParameter {
        /// Parameter name as it appears on the model card.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// Calibration could not reach the requested residual.
    CalibrationFailed {
        /// Stage that failed.
        stage: &'static str,
        /// Final residual (RMS decades of current error).
        residual: f64,
        /// Residual the caller asked for.
        target: f64,
    },
    /// A dataset did not contain the sweep required by a calibration stage.
    MissingSweep {
        /// Description of the missing sweep.
        what: &'static str,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "model parameter {name} = {value} violates {constraint}"),
            DeviceError::CalibrationFailed {
                stage,
                residual,
                target,
            } => write!(
                f,
                "calibration stage {stage} stalled at residual {residual:.4} (target {target:.4})"
            ),
            DeviceError::MissingSweep { what } => {
                write!(f, "measurement dataset lacks required sweep: {what}")
            }
        }
    }
}

impl Error for DeviceError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DeviceError>;
