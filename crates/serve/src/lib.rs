//! The reconstruction *service* layer: many concurrent calls, one process.
//!
//! The paper's attack is per-call, but every real virtual-background stack
//! runs as a per-track service component. This crate points that shape in
//! reverse: a [`ReconServer`] multiplexes thousands of concurrent
//! [`ReconstructionSession`](bb_core::session::ReconstructionSession)s over
//! the `bb_core::workers` pool, with
//!
//! * **memory accounting** — every session's `state_bytes()` is tracked,
//!   and the aggregate resident footprint never exceeds the configured
//!   budget at an API boundary;
//! * **checkpoint eviction** — when the budget is exceeded, the
//!   least-recently-active sessions are serialized to disk as BBSC v1
//!   checkpoints and dropped from memory, then resumed transparently on
//!   their next pushed frame;
//! * **panic isolation** — a session whose frame processing (or observer
//!   callback) panics is reaped with [`CoreError::WorkerPanic`] without
//!   stalling or corrupting sibling sessions;
//! * **a wire protocol** ([`wire`], magic `BBWS`) — length-prefixed
//!   messages carrying open/frame/close events for any number of
//!   interleaved sessions, decoded with the same strictness as the BBSC
//!   checkpoint reader: malformed input fails with a typed error, never a
//!   panic.
//!
//! A session served through the wire protocol is byte-identical to batch
//! reconstruction — `tests/determinism.rs` pins this with the golden hash.
//! [`loadgen`] replays synthetic calls at configurable concurrency for load
//! and soak testing (`bbuster loadgen`).

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod server;
pub mod wire;

pub use server::{ReconServer, ServeConfig, ServeStats};
pub use wire::{Message, WireEncoder};

use bb_core::CoreError;

/// Everything that can go wrong in the service layer.
#[derive(Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The wire byte stream itself is malformed: bad magic, unsupported
    /// version, truncated message, oversized length prefix, unknown message
    /// kind, or a payload that does not match its declared length.
    Wire(String),
    /// The bytes decoded fine but the message sequence is invalid: a frame
    /// for a session that was never opened, an out-of-order sequence
    /// number, or a frame payload that does not match the session geometry.
    Protocol(String),
    /// The server refused to admit a new session (session-count cap).
    AdmissionDenied {
        /// Sessions currently tracked (live + evicted).
        active: usize,
        /// The configured admission cap.
        limit: usize,
    },
    /// The addressed session does not exist (never opened, already closed,
    /// or reaped after a failure).
    UnknownSession(u64),
    /// A session with this id is already open.
    DuplicateSession(u64),
    /// A session failed while processing; panics surface as
    /// [`CoreError::WorkerPanic`] and the session is reaped.
    Session {
        /// The failing session.
        id: u64,
        /// What went wrong inside the session.
        source: CoreError,
    },
    /// Spill-directory I/O failed (eviction write or resume read).
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Wire(msg) => write!(f, "malformed wire input: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::AdmissionDenied { active, limit } => {
                write!(f, "admission denied: {active} sessions at cap {limit}")
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::DuplicateSession(id) => write!(f, "session {id} is already open"),
            ServeError::Session { id, source } => write!(f, "session {id} failed: {source}"),
            ServeError::Io(msg) => write!(f, "spill I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}
