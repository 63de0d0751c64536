//! Chaos end-to-end: the §5.3 live-device loop under deterministic fault
//! injection.
//!
//! A seeded [`FaultPlan`] makes the simulated device reset connections,
//! stall responses past the client deadline, garble frames, and answer
//! transient `busy` errors. The resilient validation loop must mask all
//! of it: across a small fault-seed matrix, `validate_on_device` has to
//! complete without error and report the *same* accepted/read-back
//! counts as the fault-free baseline, with every injected fault visible
//! in the injection log and every retry surfaced as a diagnostic.
//! Backoff goes through a manual clock, so no retry sleeps wall-clock.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::deviceize::{device_model_from_catalog, spawn_device, DeviceSpawnOptions};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim::validator::empirical::{validate_on_device_with, DevicePush};
use nassim_device::faults::{FaultKind, FaultPlan};
use nassim_device::resilient::{Clock, ManualClock, ResiliencePolicy};
use nassim_device::DeviceServer;
use nassim_diag::Severity;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Fault seeds of the chaos matrix (also exercised one-by-one in CI).
const FAULT_SEEDS: [u64; 3] = [1, 7, 23];
/// Per-class injection rate (≥10 % per the acceptance bar).
const FAULT_RATE: f64 = 0.12;
/// Instance-generation seed — identical across baseline and chaos runs
/// so both push the same instances.
const INSTANCE_SEED: u64 = 42;
/// Nodes pushed per run (enough traffic that every class fires).
const NODE_BUDGET: usize = 40;

/// Stall injected by `Delay` faults; must exceed `op_timeout` below so
/// the client actually observes the fault.
const FAULT_DELAY: Duration = Duration::from_millis(150);

fn chaos_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        // Short per-op deadline keeps injected stalls cheap in the suite.
        op_timeout: Duration::from_millis(60),
        connect_timeout: ResiliencePolicy::CONNECT_TIMEOUT,
        max_retries: 16,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(500),
        retry_budget: 100_000,
    }
}

/// Assimilate the helix manual and pick the node set to push.
fn vdm_and_nodes() -> (nassim::corpus::Vdm, Vec<nassim::corpus::VdmNodeId>) {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: 500,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let a = assimilate(
        parser_for("helix").unwrap().as_ref(),
        manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .unwrap();
    let nodes: Vec<_> = a.build.vdm.walk().into_iter().take(NODE_BUDGET).collect();
    assert!(nodes.len() >= 20, "need real traffic for the chaos matrix");
    (a.build.vdm.clone(), nodes)
}

#[test]
fn chaos_matrix_masks_every_transient_fault() {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let (vdm, nodes) = vdm_and_nodes();

    // ── Fault-free baseline. ───────────────────────────────────────────
    let model = device_model_from_catalog(&catalog, &st).unwrap();
    let mut server = DeviceServer::spawn_with(Arc::new(model), None).unwrap();
    let baseline = validate_on_device_with(
        &vdm,
        &nodes,
        server.addr(),
        &DevicePush::new(INSTANCE_SEED),
    )
    .unwrap();
    server.stop();
    assert_eq!(baseline.nodes_tested, nodes.len());
    assert_eq!(baseline.retries, 0, "baseline must need no retries");
    assert!(baseline.degraded.is_empty());

    // ── Chaos matrix: same instances, injected faults. ─────────────────
    let mut classes_seen: HashSet<FaultKind> = HashSet::new();
    for fault_seed in FAULT_SEEDS {
        let plan = Arc::new(FaultPlan::uniform(fault_seed, FAULT_RATE).with_delay(FAULT_DELAY));
        let mut server = spawn_device(
            &catalog,
            &st,
            DeviceSpawnOptions { faults: Some(Arc::clone(&plan)) },
        )
        .unwrap();
        let clock = Arc::new(ManualClock::new());
        let cfg = DevicePush {
            seed: INSTANCE_SEED,
            policy: chaos_policy(),
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            node_attempts: 8,
        };
        let out = validate_on_device_with(&vdm, &nodes, server.addr(), &cfg).unwrap();
        server.stop();

        // Transient faults fully masked: identical counts, nothing
        // degraded, no spurious failures.
        assert_eq!(out.nodes_tested, baseline.nodes_tested, "seed {fault_seed}");
        assert_eq!(out.accepted, baseline.accepted, "seed {fault_seed}");
        assert_eq!(out.readback_ok, baseline.readback_ok, "seed {fault_seed}");
        assert!(out.degraded.is_empty(), "seed {fault_seed}: {:?}", out.degraded);
        assert_eq!(out.failures.len(), baseline.failures.len(), "seed {fault_seed}");

        // Faults were genuinely injected, and the injection log accounts
        // for each one with its class and the request it hit.
        let injected = plan.take_injections();
        assert!(
            !injected.is_empty(),
            "seed {fault_seed}: no faults injected at {FAULT_RATE}"
        );
        for (i, f) in injected.iter().enumerate() {
            assert_eq!(f.seq, i as u64, "log must be in injection order");
            assert!(!f.subject.is_empty());
        }
        classes_seen.extend(injected.iter().map(|f| f.kind));

        // The client really recovered: retries and reconnects happened,
        // and every retry is accounted for as an Empirical diagnostic.
        assert!(out.retries > 0, "seed {fault_seed}");
        assert!(out.reconnects > 0, "seed {fault_seed}");
        let notes = out
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Note)
            .count() as u64;
        assert_eq!(notes, out.retries, "seed {fault_seed}");

        // Backoff never slept wall-clock: every pause hit the manual
        // clock, following the deterministic exponential schedule.
        assert_eq!(clock.slept().len() as u64, out.retries, "seed {fault_seed}");
        let base = chaos_policy().base_backoff;
        for d in clock.slept() {
            assert!(d >= base, "backoff below base: {d:?}");
            assert!(d <= chaos_policy().max_backoff);
        }
    }

    // Across the seed matrix every fault class fired at least once.
    for kind in FaultKind::ALL {
        assert!(classes_seen.contains(&kind), "class {kind:?} never injected");
    }
}

#[test]
fn chaos_run_is_replayable_from_its_seed() {
    let catalog = Catalog::base();
    let st = style::vendor("helix").unwrap();
    let (vdm, nodes) = vdm_and_nodes();

    let run = |fault_seed: u64| {
        let plan = Arc::new(FaultPlan::uniform(fault_seed, FAULT_RATE).with_delay(FAULT_DELAY));
        let model = device_model_from_catalog(&catalog, &st).unwrap();
        let mut server =
            DeviceServer::spawn_with(Arc::new(model), Some(Arc::clone(&plan))).unwrap();
        let cfg = DevicePush {
            seed: INSTANCE_SEED,
            policy: chaos_policy(),
            clock: Arc::new(ManualClock::new()),
            node_attempts: 8,
        };
        let out = validate_on_device_with(&vdm, &nodes, server.addr(), &cfg).unwrap();
        server.stop();
        (out.accepted, out.readback_ok, out.failures.len())
    };

    // Identical seed → identical outcome (the whole point of seeding the
    // fault plan: a chaos failure is replayable for debugging).
    assert_eq!(run(7), run(7));
}
