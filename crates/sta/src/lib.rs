#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // net ids are the natural index domain
//! Static timing analysis over characterized libraries.
//!
//! `cryo-sta` plays Synopsys PrimeTime's role in the paper's flow: given the
//! gate-level SoC netlist from `cryo-netlist` and a characterized
//! [`cryo_liberty::Library`] corner, it levelizes the combinational graph,
//! propagates arrival times and slews through the NLDM tables, accounts for
//! SRAM macro launch/capture, and reports the critical path — the number
//! behind the paper's Table 1 (1.04 ns at 300 K vs 1.09 ns at 10 K).
//!
//! The analysis is graph-based worst-slope STA:
//!
//! - **Startpoints**: primary inputs (driven with a configurable input
//!   slew), flip-flop `Q` pins (launched at `clk→Q`), and macro data
//!   outputs (launched at the macro's clock-to-out).
//! - **Propagation**: per-arc NLDM lookup of delay and output transition at
//!   the net's load (pin capacitances plus a fanout-based wire estimate).
//! - **Endpoints**: flip-flop `D` pins (capture at period − setup), macro
//!   inputs, and primary outputs.
//!
//! Hold analysis runs the dual min-propagation against the hold margins.
//!
//! **Levels across cores.** Propagation runs level by level over the
//! design's memoized [`cryo_netlist::Levels`]: the combinational instances
//! grouped by FIFO Kahn generation, and the nets numbered in the same
//! order ("slots"), so that each level's output nets are one contiguous
//! slice of the timing array. At each level the array is split at the
//! level's first slot into the finished levels, read-only, and the current
//! level, writable. A wide level is split into contiguous chunks of at
//! least 4 096 instances, one per `available_parallelism()` scoped thread,
//! and each thread writes only its own instances' slots. The thread count
//! changes no output:
//!
//! - each instance reseeds its own fault stream (`sta:<instance>`), and
//!   workers enter the caller's fault plan and hand their fired faults and
//!   arc evaluations back ([`cryo_spice::work::fork`]);
//! - degraded-arc records concatenate in chunk order before the final
//!   sort, and under [`MissingArcPolicy::Fail`] the first error in serial
//!   order wins, with the arc evaluations and faults the serial walk would
//!   have counted up to it;
//! - a design with a net of two drivers stays on one thread, since such a
//!   net has two writers.

pub mod audit;
mod engine;
mod report;

/// Read-only view of the arc-evaluation count, kept for the benchmark's
/// tracer; the ledger is [`cryo_spice::work`].
pub mod counters {
    /// This thread's STA arc evaluations ([`cryo_spice::Work::arc_evals`]).
    #[must_use]
    pub fn eval_count() -> u64 {
        cryo_spice::work::get().arc_evals
    }
}

pub use audit::audit_timing;
pub use engine::{analyze, MissingArcPolicy, StaConfig};
pub use report::{
    DegradeCause, DegradeKind, DegradeResolution, DegradedArc, EndpointSummary, PathSigma,
    PathStep, StatisticalSummary, TimingReport,
};

use std::error::Error;
use std::fmt;

/// STA errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// An instance references a cell missing from the library.
    UnmappedCell {
        /// Instance name.
        instance: String,
        /// Cell name.
        cell: String,
    },
    /// The combinational graph has a cycle (unbroken by registers).
    CombinationalLoop {
        /// Name of a net on the cycle.
        net: String,
    },
    /// The design has no timing endpoints.
    NoEndpoints,
    /// An arc lookup failed (injected fault) and the configured
    /// [`MissingArcPolicy`] is `Fail`.
    ArcLookupFault {
        /// Instance name.
        instance: String,
        /// Cell name.
        cell: String,
        /// Output pin of the failed arc.
        pin: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::UnmappedCell { instance, cell } => {
                write!(f, "instance {instance}: cell {cell} not in library")
            }
            StaError::CombinationalLoop { net } => {
                write!(f, "combinational loop through {net}")
            }
            StaError::NoEndpoints => write!(f, "design has no timing endpoints"),
            StaError::ArcLookupFault {
                instance,
                cell,
                pin,
            } => write!(
                f,
                "instance {instance}: arc lookup for {cell}/{pin} failed and policy is Fail"
            ),
        }
    }
}

impl Error for StaError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StaError>;
