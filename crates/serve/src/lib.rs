//! Distributed, resumable sweep service for the PIMCOMP exploration
//! engine: a coordinator/worker fan-out that shards a
//! [`SweepSpec`](pimcomp_dse::SweepSpec)'s point grid across processes
//! while preserving the single-process determinism contract.
//!
//! # Architecture
//!
//! ```text
//!             pimcomp serve --spec sweep.json          pimcomp work --connect HOST:PORT
//!            ┌──────────────────────────────┐         ┌──────────────────────────┐
//!            │ Coordinator                  │  TCP /  │ Worker (any number)      │
//!            │  spec → SweepPlan (N points) │  JSONL  │  HelloAck → same         │
//!            │  lease ranges to workers     │◄───────►│  SweepPlan from the      │
//!            │  journal PointRecords        │         │  shipped spec; evaluates │
//!            │  reduce journal → report     │         │  leased points via the   │
//!            └──────────────────────────────┘         │  ExploreEngine machinery │
//!                                                     └──────────────────────────┘
//! ```
//!
//! * The **protocol** ([`protocol`]) is versioned line-delimited JSON
//!   over `std::net` — one message per line, vendored `serde_json` as
//!   the wire format, no external dependencies.
//! * The **journal** ([`journal`]) is an append-only JSONL file of
//!   completed point records, fsynced per lease batch. Crash-resume
//!   replays it and leases only the unfinished points.
//! * The **coordinator** ([`coordinator`]) leases contiguous index
//!   ranges, re-issues leases on worker death or timeout, and reduces
//!   the journal in canonical point order.
//! * **Workers** ([`worker`]) evaluate points with
//!   [`SweepPlan::evaluate`](pimcomp_dse::SweepPlan::evaluate),
//!   sharing the content-addressed artifact cache (optionally
//!   size-bounded) and streaming per-point progress back.
//!
//! # Determinism
//!
//! A point's record is a pure function of the spec and the point's
//! index — never of which process evaluated it, when, or from what
//! cache state. The coordinator reduces records in index order through
//! [`SweepPlan::reduce`](pimcomp_dse::SweepPlan::reduce), so the final
//! report is **byte-identical** to a single-process `pimcomp explore`
//! run for any worker count, lease size, or crash/resume schedule.
//! `docs/DISTRIBUTED.md` in the repository spells out the full
//! argument and the protocol schema.
//!
//! # Example (in-process, one worker)
//!
//! ```
//! use pimcomp_serve::{Coordinator, CoordinatorConfig, WorkerConfig, run_worker};
//!
//! # fn main() -> Result<(), pimcomp_serve::ServeError> {
//! let spec_json = r#"{
//!     "models": ["tiny_mlp"], "modes": ["ht"],
//!     "hardware": { "base": "small_test", "parallelism": [4, 8] },
//!     "ga": { "population": 4, "iterations": 2 }, "master_seed": 7
//! }"#;
//! let coordinator = Coordinator::bind(spec_json, CoordinatorConfig::default())?;
//! let addr = coordinator.local_addr()?;
//! let handle = std::thread::spawn(move || coordinator.run());
//! run_worker(&WorkerConfig::connect_to(addr.to_string()))?;
//! let outcome = handle.join().expect("coordinator thread")?;
//! assert_eq!(outcome.report.points.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod journal;
pub mod protocol;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, ServeOutcome};
pub use journal::{
    replay, spec_fingerprint, Journal, JournalEntry, JournalHeader, Replayed, JOURNAL_VERSION,
};
pub use protocol::{CoordMsg, WorkerMsg, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

use pimcomp_dse::ExploreError;
use std::fmt;

/// Errors raised by the distributed sweep service. Everything a socket
/// or a journal file can throw at the service lands here as a
/// structured variant — per the repository's standing policy, no input
/// (wire bytes, journal lines, spec files) can panic the service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket or file I/O failed.
    Io {
        /// Underlying description.
        detail: String,
    },
    /// A peer sent a malformed or out-of-place protocol message.
    Protocol {
        /// What was wrong with the message.
        detail: String,
    },
    /// The peers disagree on the protocol version.
    Handshake {
        /// Version negotiation detail.
        detail: String,
    },
    /// The journal file is corrupt or belongs to a different sweep.
    Journal {
        /// What was wrong with the journal.
        detail: String,
    },
    /// The requested configuration is outside what the service
    /// supports (e.g. successive-halving specs).
    Unsupported {
        /// What is unsupported, and what to use instead.
        detail: String,
    },
    /// Spec parsing, model resolution, or point evaluation failed.
    Explore(ExploreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { detail } => write!(f, "serve I/O failed: {detail}"),
            ServeError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ServeError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            ServeError::Journal { detail } => write!(f, "journal error: {detail}"),
            ServeError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            ServeError::Explore(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExploreError> for ServeError {
    fn from(e: ExploreError) -> Self {
        ServeError::Explore(e)
    }
}
