//! # nassim-serve
//!
//! Assimilation-as-a-service: a long-running TCP daemon serving the
//! NAssim artifacts — assimilated VDMs, the network-wide UDM and the §6
//! Mapper's sharded DL index — over a typed line/JSON protocol, built
//! to keep its invariants under hostile load:
//!
//! * [`protocol`] — the wire format: `query-mapping`, `catalog` /
//!   `inspect`, `submit-manual` (streamed per-stage progress) and
//!   `health`, with a typed error class for every failure shape;
//! * [`admission`] — bounded admission with explicit load shedding
//!   (`overloaded` is a reply, never a hang), per-request deadlines
//!   that keep counting while queued, and drain support;
//! * [`state`] — the served artifacts, built through an
//!   [`nassim::ArtifactStore`] so a daemon warm-starts from persisted
//!   artifacts (lossily, surviving partial corruption) and serves
//!   byte-identical responses either way;
//! * [`server`] — the daemon: thread-per-connection over the shared
//!   bounded frame reader, per-request `catch_unwind` isolation,
//!   graceful drain behind a generation counter, and a drainable event
//!   log accounting every shed, expired deadline, malformed frame,
//!   mid-frame disconnect and caught panic;
//! * [`journal`] — the write-ahead job journal behind journaled
//!   `submit-manual`: checksummed fsynced records (submitted / stage /
//!   done) keyed by content hashes, torn-tail truncation on open, and
//!   per-job artifact stores, so a `SIGKILL`ed daemon resumes every
//!   accepted job and answers byte-identically to an uninterrupted run;
//! * [`client`] — the blocking client;
//! * [`faults`] — the chaos layer: a seeded [`faults::ServeFaultPlan`]
//!   driving slow-loris sends, mid-frame disconnects, malformed frames,
//!   zero-deadline requests and burst-overload volleys, replayable from
//!   its seed, with a parity oracle (clean requests answer
//!   byte-identically to a fault-free run).
//!
//! Environment knobs: `NASSIM_SERVE_QUEUE=workers:queue` sizes
//! admission, `NASSIM_SERVE_JOURNAL=<dir>` enables the job journal (the
//! `nassim-serve` binary), `NASSIM_SERVE_VENDORS=a,b` picks the served
//! catalog, and `NASSIM_CRASH=seed:rate` (read by the core crate)
//! injects seeded kill points into every durable write.

pub mod admission;
pub mod client;
pub mod faults;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod state;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use admission::{Admission, AdmissionConfig, Deadline, Permit, ShedReason};
pub use client::ServeClient;
pub use faults::{
    run_chaos, ChaosOptions, ChaosReport, InjectedServeFault, ServeFaultKind, ServeFaultPlan,
};
pub use journal::{JobJournal, JobState, JournalRecord, JOURNAL_FILE};
pub use protocol::{valid_job_id, ErrKind, ErrReply, Reply, Request, MAX_JOB_ID_LEN};
pub use server::{CounterSnapshot, ServeConfig, ServeDaemon, ServeEvent, EVENT_LOG_CAP};
pub use state::{DemoEmbedder, ServeState, StateOptions, VendorEntry, DEMO_SEED};

/// Lock `m`, recovering the guard if a holder panicked, so one panicked
/// session does not fail every later lock of the shared state.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
