//! Admission control: a bounded concurrency gate with explicit load
//! shedding, per-request deadlines and drain support.
//!
//! The daemon admits at most `workers` pipeline requests concurrently;
//! up to `queue` more may wait. Anything beyond that is **shed** with a
//! typed [`ShedReason::Overloaded`] — never queued unboundedly, never a
//! hang. A queued request whose deadline expires before a slot frees is
//! shed with [`ShedReason::DeadlineExpired`]; once
//! [`Admission::begin_drain`] runs, every queued and future request is
//! shed with [`ShedReason::Draining`] while already-admitted requests
//! run to completion.
//!
//! Built on `std::sync::{Mutex, Condvar}`. Lock poisoning cannot corrupt the
//! gate — the state is a handful of counters — so poisoned locks are
//! recovered, not propagated.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A request's time budget, started when the request is read off the
/// socket — so time spent *queued* counts against it, and a deadline set
/// to zero expires deterministically at the first check regardless of
/// scheduling.
#[derive(Debug, Clone)]
pub struct Deadline {
    started: Instant,
    budget: Option<Duration>,
}

impl Deadline {
    /// Start the clock with an optional budget in milliseconds.
    pub fn started(budget_ms: Option<u64>) -> Deadline {
        Deadline {
            started: Instant::now(),
            budget: budget_ms.map(Duration::from_millis),
        }
    }

    /// A deadline with no budget (never expires).
    pub fn unbounded() -> Deadline {
        Deadline::started(None)
    }

    pub fn expired(&self) -> bool {
        match self.budget {
            Some(budget) => self.started.elapsed() >= budget,
            None => false,
        }
    }

    /// Budget left, `None` when unbounded. Zero when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.budget
            .map(|budget| budget.saturating_sub(self.started.elapsed()))
    }

    /// Checkpoint between pipeline stages: `Err` names the stage that
    /// would have run past the deadline, for the typed error reply.
    pub fn check(&self, stage: &str) -> Result<(), String> {
        if self.expired() {
            Err(format!("deadline expired before stage `{stage}`"))
        } else {
            Ok(())
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// Queue full at arrival.
    Overloaded,
    /// Deadline expired while queued (or already expired at arrival).
    DeadlineExpired,
    /// The daemon is draining.
    Draining,
}

/// Worker/queue sizing, with the `NASSIM_SERVE_QUEUE` env knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrently executing pipeline requests.
    pub workers: usize,
    /// Requests allowed to wait for a slot; arrivals beyond this shed.
    pub queue: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig { workers: 2, queue: 8 }
    }
}

impl AdmissionConfig {
    pub fn new(workers: usize, queue: usize) -> AdmissionConfig {
        AdmissionConfig {
            workers: workers.max(1),
            queue,
        }
    }

    /// Parse the `NASSIM_SERVE_QUEUE` value: either `workers:queue`
    /// (e.g. `4:16`) or a bare queue depth (e.g. `16`, keeping the
    /// default worker count). `None` when unparseable.
    pub fn parse_env_value(value: &str) -> Option<AdmissionConfig> {
        let value = value.trim();
        match value.split_once(':') {
            Some((w, q)) => {
                let workers: usize = w.trim().parse().ok()?;
                let queue: usize = q.trim().parse().ok()?;
                if workers == 0 {
                    return None;
                }
                Some(AdmissionConfig::new(workers, queue))
            }
            None => {
                let queue: usize = value.parse().ok()?;
                Some(AdmissionConfig {
                    queue,
                    ..AdmissionConfig::default()
                })
            }
        }
    }

    /// Config from the environment, falling back to the default.
    pub fn from_env() -> AdmissionConfig {
        std::env::var("NASSIM_SERVE_QUEUE")
            .ok()
            .and_then(|v| AdmissionConfig::parse_env_value(&v))
            .unwrap_or_default()
    }
}

#[derive(Debug, Default)]
struct Gate {
    active: usize,
    waiting: usize,
    draining: bool,
}

/// The shared admission gate.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    gate: Mutex<Gate>,
    cv: Condvar,
}

/// Recover a poisoned guard: the gate state is counters only, valid
/// regardless of where a panicking holder stopped.
fn lock(gate: &Mutex<Gate>) -> MutexGuard<'_, Gate> {
    gate.lock().unwrap_or_else(|e| e.into_inner())
}

impl Admission {
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            gate: Mutex::new(Gate::default()),
            cv: Condvar::new(),
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// `(active, waiting)` right now — the queue depths `health` reports.
    pub fn depths(&self) -> (usize, usize) {
        let g = lock(&self.gate);
        (g.active, g.waiting)
    }

    /// Admit one request or shed it with a typed reason. Blocks at most
    /// until the deadline expires (or until drain/a free slot, when the
    /// request is unbounded); never blocks when the wait queue is full.
    pub fn admit(&self, deadline: &Deadline) -> Result<Permit<'_>, ShedReason> {
        let mut g = lock(&self.gate);
        if g.draining {
            return Err(ShedReason::Draining);
        }
        if deadline.expired() {
            return Err(ShedReason::DeadlineExpired);
        }
        if g.active < self.cfg.workers {
            g.active += 1;
            return Ok(Permit { admission: self });
        }
        if g.waiting >= self.cfg.queue {
            return Err(ShedReason::Overloaded);
        }
        g.waiting += 1;
        let shed = loop {
            g = match deadline.remaining() {
                Some(left) if left.is_zero() => break ShedReason::DeadlineExpired,
                Some(left) => {
                    let (g, _timeout) = self
                        .cv
                        .wait_timeout(g, left)
                        .unwrap_or_else(|e| e.into_inner());
                    g
                }
                None => self.cv.wait(g).unwrap_or_else(|e| e.into_inner()),
            };
            if g.draining {
                break ShedReason::Draining;
            }
            if g.active < self.cfg.workers {
                g.waiting -= 1;
                g.active += 1;
                return Ok(Permit { admission: self });
            }
            if deadline.expired() {
                break ShedReason::DeadlineExpired;
            }
        };
        g.waiting -= 1;
        // wait_idle() sleeps on the same condvar and re-checks `waiting`;
        // a shed waiter that left silently could strand it forever (last
        // active permit notifies, wait_idle sees waiting > 0, goes back
        // to sleep, then this decrement happens with no further wake).
        drop(g);
        self.cv.notify_all();
        Err(shed)
    }

    /// Shed every queued request with [`ShedReason::Draining`] and refuse
    /// all future admissions; already-admitted permits stay valid.
    pub fn begin_drain(&self) {
        lock(&self.gate).draining = true;
        self.cv.notify_all();
    }

    pub fn is_draining(&self) -> bool {
        lock(&self.gate).draining
    }

    /// Block until no request is active or queued (used by drain after
    /// `begin_drain`; queued requests shed themselves on wake).
    pub fn wait_idle(&self) {
        let mut g = lock(&self.gate);
        while g.active > 0 || g.waiting > 0 {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release(&self) {
        let mut g = lock(&self.gate);
        g.active = g.active.saturating_sub(1);
        drop(g);
        self.cv.notify_all();
    }
}

/// An admitted request's slot; releasing is tied to drop so a panicking
/// handler (caught upstream) can never leak capacity.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn admits_up_to_workers_then_queues_then_sheds() {
        let adm = Arc::new(Admission::new(AdmissionConfig::new(2, 1)));
        let a = adm.admit(&Deadline::unbounded()).unwrap();
        let b = adm.admit(&Deadline::unbounded()).unwrap();
        assert_eq!(adm.depths(), (2, 0));
        // Third request queues; once it waits, a fourth must shed.
        let queued = std::thread::spawn({
            let adm = Arc::clone(&adm);
            move || adm.admit(&Deadline::unbounded()).map(|_| ())
        });
        while adm.depths().1 != 1 {
            std::thread::yield_now();
        }
        assert_eq!(
            adm.admit(&Deadline::unbounded()).unwrap_err(),
            ShedReason::Overloaded
        );
        drop(a);
        queued.join().unwrap().unwrap();
        drop(b);
        // Queue drains back to idle.
        let deadline = Instant::now() + Duration::from_secs(5);
        while adm.depths() != (0, 0) {
            assert!(Instant::now() < deadline, "gate never went idle");
            std::thread::yield_now();
        }
    }

    #[test]
    fn expired_deadline_is_shed_before_queueing() {
        let adm = Admission::new(AdmissionConfig::new(1, 4));
        let _hold = adm.admit(&Deadline::unbounded()).unwrap();
        // Zero budget: expires at the first check, deterministically.
        let err = adm.admit(&Deadline::started(Some(0))).unwrap_err();
        assert_eq!(err, ShedReason::DeadlineExpired);
    }

    #[test]
    fn queued_request_times_out_at_its_deadline() {
        let adm = Admission::new(AdmissionConfig::new(1, 4));
        let _hold = adm.admit(&Deadline::unbounded()).unwrap();
        let t = Instant::now();
        let err = adm.admit(&Deadline::started(Some(50))).unwrap_err();
        assert_eq!(err, ShedReason::DeadlineExpired);
        assert!(t.elapsed() < Duration::from_secs(5));
        assert_eq!(adm.depths(), (1, 0), "timed-out waiter left the queue");
    }

    #[test]
    fn drain_sheds_queued_and_future_requests() {
        let adm = Arc::new(Admission::new(AdmissionConfig::new(1, 4)));
        let hold = adm.admit(&Deadline::unbounded()).unwrap();
        let shed_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let adm = Arc::clone(&adm);
                let shed_seen = Arc::clone(&shed_seen);
                std::thread::spawn(move || {
                    if adm.admit(&Deadline::unbounded()).is_err() {
                        shed_seen.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        while adm.depths().1 != 3 {
            std::thread::yield_now();
        }
        adm.begin_drain();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shed_seen.load(Ordering::SeqCst), 3);
        assert_eq!(
            adm.admit(&Deadline::unbounded()).unwrap_err(),
            ShedReason::Draining
        );
        // The in-flight permit completes; wait_idle returns after it.
        drop(hold);
        adm.wait_idle();
        assert_eq!(adm.depths(), (0, 0));
    }

    #[test]
    fn wait_idle_not_stranded_by_shed_waiters() {
        // Regression: a shed waiter must notify the condvar on its way
        // out, or wait_idle() can wake on the last permit's release, see
        // waiting > 0, and sleep forever once the waiters shed silently.
        // The interleaving is racy, so hammer it.
        for _ in 0..50 {
            let adm = Arc::new(Admission::new(AdmissionConfig::new(1, 4)));
            let hold = adm.admit(&Deadline::unbounded()).unwrap();
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let adm = Arc::clone(&adm);
                    std::thread::spawn(move || {
                        let _ = adm.admit(&Deadline::unbounded());
                    })
                })
                .collect();
            while adm.depths().1 != 2 {
                std::thread::yield_now();
            }
            adm.begin_drain();
            drop(hold);
            let idle = std::thread::spawn({
                let adm = Arc::clone(&adm);
                move || adm.wait_idle()
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while !idle.is_finished() {
                assert!(Instant::now() < deadline, "wait_idle stranded");
                std::thread::yield_now();
            }
            idle.join().unwrap();
            for w in waiters {
                w.join().unwrap();
            }
            assert_eq!(adm.depths(), (0, 0));
        }
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(
            AdmissionConfig::parse_env_value("4:16"),
            Some(AdmissionConfig::new(4, 16))
        );
        assert_eq!(
            AdmissionConfig::parse_env_value(" 1 : 0 "),
            Some(AdmissionConfig::new(1, 0))
        );
        let bare = AdmissionConfig::parse_env_value("16").unwrap();
        assert_eq!(bare.queue, 16);
        assert_eq!(bare.workers, AdmissionConfig::default().workers);
        assert_eq!(AdmissionConfig::parse_env_value("0:4"), None);
        assert_eq!(AdmissionConfig::parse_env_value("x"), None);
        assert_eq!(AdmissionConfig::parse_env_value("4:"), None);
    }
}
