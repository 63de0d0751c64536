//! # nassim-device
//!
//! A simulated network device — the substrate that stands in for the
//! real devices the paper issues generated CLI instances to during
//! empirical validation (§5.3: "we issue the instances directly to the
//! devices for validation; finally, we use 'show' commands … to check
//! whether the instance has been correctly configured").
//!
//! The simulation is deliberately faithful to how CLI devices behave:
//!
//! * [`model`] — the device's true configuration model: a view (command
//!   mode) tree plus, per view, the set of accepted command templates as
//!   CLI graph models;
//! * [`session`] — a stateful CLI session: a view stack, command matching
//!   against the current view, `quit`/`return` navigation, a hierarchical
//!   configuration store, and `display current-configuration`;
//! * [`protocol`] — the line protocol framing responses (`+OK`, `-ERR`,
//!   `*N` output blocks);
//! * [`framing`] — bounded line-frame reading shared with the
//!   `nassim-serve` protocol: a [`MAX_FRAME_BYTES`] cap per frame and a
//!   timeout-tolerant accumulator for server read loops;
//! * [`server`] / [`client`] — a blocking TCP server (thread per
//!   connection, std::net) and client, so the validation loop runs over a
//!   real socket exactly as a Telnet-driven SDN controller would;
//! * [`faults`] — deterministic, seeded fault injection (connection
//!   resets, stalled responses, garbled frames, transient `busy`
//!   errors), env-tunable via `NASSIM_FAULTS=seed:rate`, with a
//!   drainable injection log;
//! * [`resilient`] — [`ResilientClient`]: per-op timeouts, bounded
//!   retries with deterministic exponential backoff (injectable clock),
//!   automatic reconnect with opener-chain re-navigation, and a retry
//!   budget that opens a circuit for graceful degradation.
//!
//! ```
//! use nassim_device::{model::DeviceModel, session::Session};
//!
//! let mut model = DeviceModel::new("system");
//! model.add_view("bgp-view", "system").unwrap();
//! model.add_command("system", "bgp <as-number>", Some("bgp-view")).unwrap();
//! model.add_command("bgp-view", "router-id <ipv4-address>", None).unwrap();
//!
//! let mut s = Session::new(&model);
//! assert!(s.exec("bgp 65001").is_ok());
//! assert!(s.exec("router-id 1.1.1.1").is_ok());
//! assert!(s.exec("no-such-command 1").is_err());
//! ```

pub mod client;
pub mod faults;
pub mod framing;
pub mod model;
pub mod protocol;
pub mod resilient;
pub mod server;
pub mod session;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use client::DeviceClient;
pub use faults::{FaultKind, FaultPlan, InjectedFault};
pub use framing::{read_frame, Frame, FrameAccumulator, MAX_FRAME_BYTES};
pub use model::DeviceModel;
pub use protocol::Response;
pub use resilient::{
    Clock, ManualClock, Navigated, ResilienceError, ResiliencePolicy, ResilienceStats,
    ResilientClient, RetryEvent, WallClock,
};
pub use server::DeviceServer;
pub use session::Session;

/// Lock `m`, recovering the guard if a holder panicked, so one panicked
/// session does not fail every later lock of the shared state.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
