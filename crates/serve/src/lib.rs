#![warn(missing_docs)]
//! Characterization-as-a-service: a crash-safe daemon over the
//! supervised signoff flow.
//!
//! `cryo-serve` turns the batch pipeline into a long-running service
//! speaking line-delimited JSON over a Unix socket. The service adds
//! exactly four behaviors on top of the flow — everything else (caching,
//! checkpointing, auditing, budgets) is the same code the batch path
//! runs:
//!
//! - **Coalescing** — concurrent requests for the same work (same cache
//!   key) share one in-flight job and receive byte-identical artifacts;
//! - **Backpressure** — a bounded admission queue sheds excess load with
//!   a structured `overloaded{retry_after_ms}` instead of queueing into
//!   unbounded latency;
//! - **Cancellation** — a disconnected client's abandoned job is
//!   cancelled cooperatively; checkpoints committed before the
//!   cancellation point stay on disk;
//! - **Crash safety** — the daemon keeps no state the checkpoint stores
//!   don't, so `kill -9` costs only the in-memory queue: a restarted
//!   daemon replays the same request with zero re-simulation.
//!
//! See `DESIGN.md` §14 for the architecture and the protocol reference.

pub mod client;
pub mod daemon;
pub mod proto;

pub use client::{event_kind, Client};
pub use daemon::{Daemon, ServeConfig, ServeStats};
pub use proto::{parse_request, Request};

use cryo_core::CoreError;

/// Service-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A flow/validation failure surfaced at the service boundary.
    Core(CoreError),
    /// The peer broke the line-delimited JSON protocol.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Core(e) => write!(f, "flow error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Protocol(_) => None,
        }
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
