//! Deterministic fault injection — the chaos layer of the simulated
//! device.
//!
//! Stage-3 validation (§5.3) is the one place the pipeline touches the
//! real world, and real device channels fail in mundane ways: Telnet
//! sessions drop, responses stall past the driver's deadline, frames
//! arrive garbled, and devices answer "busy" under load. A [`FaultPlan`]
//! reproduces exactly those failures *deterministically*: the shared
//! seeded plan ([`nassim_diag::chaos`]) decides, per request, whether to
//! inject a fault and which class, so a chaos run is replayable
//! bit-for-bit from its seed, and every injection is recorded in a
//! drainable log so tests can assert exactly what was injected.
//!
//! The server consults the plan in `serve_connection` before executing a
//! request (see [`crate::server`]); the client side masks the injected
//! faults with [`crate::resilient::ResilientClient`].

use nassim_diag::chaos::{FaultClass, Injection, SeededPlan};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The transient-error message injected by [`FaultKind::Busy`]. Clients
/// recognise it via [`crate::resilient::is_transient`].
pub const BUSY_MESSAGE: &str = "busy: transient fault injected, retry";

/// One class of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Close the connection before responding (mid-session reset).
    Reset,
    /// Stall the response past the client's per-op deadline, then send
    /// it anyway (the client has usually given up by then).
    Delay,
    /// Send an unparseable response frame instead of the real one.
    Garble,
    /// Answer `-ERR busy…` without executing; succeeds on retry.
    Busy,
}

impl FaultKind {
    /// All classes, in the order a [`FaultPlan`] draws them.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Reset,
        FaultKind::Delay,
        FaultKind::Garble,
        FaultKind::Busy,
    ];
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Reset => "reset",
            FaultKind::Delay => "delay",
            FaultKind::Garble => "garble",
            FaultKind::Busy => "busy",
        })
    }
}

impl FaultClass for FaultKind {
    const ALL: &'static [FaultKind] = &FaultKind::ALL;
}

/// One recorded injection: which fault hit which request line, in order.
pub type InjectedFault = Injection<FaultKind, String>;

/// A seeded, shareable fault-injection plan: the shared
/// [`SeededPlan`] over the request lines it strikes, plus how long a
/// [`FaultKind::Delay`] stalls.
pub struct FaultPlan {
    plan: SeededPlan<FaultKind, String>,
    delay: Duration,
}

impl FaultPlan {
    fn new(plan: SeededPlan<FaultKind, String>) -> FaultPlan {
        FaultPlan {
            plan,
            // Past the default 10 s client deadline; chaos tests override
            // with something tiny via `with_delay`.
            delay: Duration::from_secs(12),
        }
    }

    /// Plan injecting every class at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(SeededPlan::uniform(seed, rate))
    }

    /// Plan injecting only `kind`, at `rate`.
    pub fn only(seed: u64, kind: FaultKind, rate: f64) -> FaultPlan {
        FaultPlan::new(SeededPlan::only(seed, kind, rate))
    }

    /// Override how long a [`FaultKind::Delay`] stalls the response.
    /// Must exceed the client's per-op timeout to actually be observed
    /// as a fault.
    pub fn with_delay(mut self, delay: Duration) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// Build a plan from the `NASSIM_FAULTS=seed:rate` environment
    /// variable (e.g. `NASSIM_FAULTS=7:0.2` injects every class at 20 %
    /// under seed 7). Returns `None` when unset or unparseable.
    pub fn from_env() -> Option<FaultPlan> {
        SeededPlan::from_env("NASSIM_FAULTS").map(FaultPlan::new)
    }

    /// Sleep out a [`FaultKind::Delay`], in short slices so a server
    /// shutdown never waits for the full stall.
    pub(crate) fn sleep_delay(&self, shutdown: &AtomicBool) {
        let slice = Duration::from_millis(10);
        let mut remaining = self.delay;
        while !remaining.is_zero() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = remaining.min(slice);
            std::thread::sleep(step);
            remaining -= step;
        }
    }
}

impl Deref for FaultPlan {
    type Target = SeededPlan<FaultKind, String>;

    fn deref(&self) -> &SeededPlan<FaultKind, String> {
        &self.plan
    }
}
