//! Chaos-driven serving integration: the `nassim-serve` daemon under a
//! seeded client-side fault matrix.
//!
//! The oracle is threefold:
//! * **byte parity** — every request that is answered normally (clean,
//!   slow-loris, post-disconnect resend, post-burst) must produce frames
//!   byte-identical to a fault-free baseline run of the same script;
//! * **accounting** — every injected disturbance must be accounted: the
//!   chaos plan's injection log reconciles exactly against the daemon's
//!   counters and drainable event log, and nothing else fires;
//! * **zero panics** — no fault class may crash a handler.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_datasets::catalog::Catalog;
use nassim_datasets::{manualgen, style};
use nassim_serve::{
    run_chaos, AdmissionConfig, ChaosOptions, ErrKind, Reply, Request, ServeClient, ServeConfig,
    ServeDaemon, ServeEvent, ServeFaultKind, ServeFaultPlan, ServeState, ShedReason, StateOptions,
};
use serde::Value;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same matrix as `tests/device_chaos.rs`: three seeds, every class at a
/// moderate rate.
const SEEDS: [u64; 3] = [1, 7, 23];
const RATE: f64 = 0.12;

fn demo_state() -> Arc<ServeState> {
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    Arc::new(state)
}

/// A mixed request script: catalog reads, mapper queries and one staged
/// manual submission. Deliberately no `health` — its payload includes
/// live counters, so it can never be part of a byte-parity oracle.
fn chaos_script() -> Vec<Request> {
    let st = style::vendor("cirrus").unwrap();
    let manual = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 4242,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let pages: Vec<(String, String)> = manual
        .pages
        .iter()
        .take(3)
        .map(|p| (p.url.clone(), p.html.clone()))
        .collect();
    assert!(!pages.is_empty());

    let mut script = vec![
        Request::Catalog,
        Request::Inspect {
            vendor: "cirrus".to_string(),
        },
    ];
    let topics = [
        "bgp as-number",
        "interface vlan id",
        "ospf area",
        "route-map policy",
        "mtu bytes",
        "snmp community",
        "ntp server address",
        "acl sequence",
        "spanning-tree priority",
        "dhcp relay address",
        "qos scheduler weight",
        "vrf route distinguisher",
        "lldp transmit interval",
        "port channel members",
        "syslog severity",
        "password minimum length",
        "bfd detect multiplier",
        "multicast group range",
        "tunnel source endpoint",
        "dns resolver address",
    ];
    for (i, topic) in topics.iter().enumerate() {
        script.push(Request::QueryMapping {
            sequences: vec![topic.to_string()],
            k: 1 + i % 5,
            deadline_ms: None,
            mode: None,
        });
    }
    script.push(Request::SubmitManual {
        vendor: "cirrus".to_string(),
        pages,
        deadline_ms: None,
        job: None,
    });
    script.push(Request::Inspect {
        vendor: "cirrus".to_string(),
    });
    script
}

fn count_kind(injections: &[nassim_serve::InjectedServeFault], kind: ServeFaultKind) -> usize {
    injections.iter().filter(|f| f.kind == kind).count()
}

#[test]
fn chaos_matrix_byte_parity_and_accounting() {
    let state = demo_state();
    let script = chaos_script();
    let opts = ChaosOptions::default();

    // Fault-free baseline: the parity oracle. A fresh daemon over the
    // same shared state serves identical bytes, so each chaos run gets
    // its own daemon (and therefore clean counters).
    let baseline_daemon =
        ServeDaemon::spawn(Arc::clone(&state), ServeConfig::default()).unwrap();
    let baseline = run_chaos(baseline_daemon.addr(), &script, None, &opts).unwrap();
    assert_eq!(baseline.outcomes.len(), script.len());
    for o in &baseline.outcomes {
        assert!(
            matches!(o.reply, Reply::Ok(_)),
            "baseline request {} failed: {:?}",
            o.index,
            o.reply
        );
    }
    drop(baseline_daemon);

    let mut classes_seen: HashSet<ServeFaultKind> = HashSet::new();
    for seed in SEEDS {
        let daemon = ServeDaemon::spawn(Arc::clone(&state), ServeConfig::default()).unwrap();
        let plan = ServeFaultPlan::uniform(seed, RATE);
        let report = run_chaos(daemon.addr(), &script, Some(&plan), &opts).unwrap();
        let injections = plan.take_injections();
        classes_seen.extend(injections.iter().map(|f| f.kind));

        // Replayability: a fresh plan from the same seed makes the same
        // decision for every scripted request.
        let replay = ServeFaultPlan::uniform(seed, RATE);
        for o in &report.outcomes {
            assert_eq!(replay.decide(&o.index), o.fault, "seed {seed} diverged");
        }

        // Parity: every normally-answered request is byte-identical to
        // the baseline; replaced requests get their typed errors.
        for o in &report.outcomes {
            match o.fault {
                None
                | Some(ServeFaultKind::SlowLoris)
                | Some(ServeFaultKind::Disconnect)
                | Some(ServeFaultKind::Burst) => {
                    assert_eq!(
                        o.raw, baseline.outcomes[o.index].raw,
                        "seed {seed} request {} ({:?}) lost byte parity",
                        o.index, o.fault
                    );
                }
                Some(ServeFaultKind::Malformed) => match &o.reply {
                    Reply::Err(e) => assert_eq!(e.kind, ErrKind::Malformed),
                    other => panic!("garbage frame answered {other:?}"),
                },
                Some(ServeFaultKind::Deadline) => match &o.reply {
                    Reply::Err(e) => assert_eq!(e.kind, ErrKind::Deadline),
                    other => panic!("zero-deadline request answered {other:?}"),
                },
            }
        }

        // Client-side burst accounting: every volley reply is ok or a
        // typed overload shed; nothing vanished.
        let bursts = count_kind(&injections, ServeFaultKind::Burst);
        assert_eq!(report.burst_other, 0, "seed {seed}: unaccounted volley replies");
        assert_eq!(report.burst_ok + report.burst_shed, bursts * opts.burst_size);
        assert_eq!(report.disconnects_injected, count_kind(&injections, ServeFaultKind::Disconnect));
        assert_eq!(report.malformed_injected, count_kind(&injections, ServeFaultKind::Malformed));
        assert_eq!(report.deadline_injected, count_kind(&injections, ServeFaultKind::Deadline));

        // The rude half-frame connections are noticed by their session
        // threads asynchronously; give the daemon a moment to account
        // the last one before reconciling.
        let waiting = Instant::now();
        while daemon.counters().disconnects < report.disconnects_injected as u64 {
            assert!(
                waiting.elapsed() < Duration::from_secs(5),
                "seed {seed}: daemon never accounted all mid-frame disconnects"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // Server-side reconciliation: counters match the injection log
        // exactly — every fault accounted, nothing else fired.
        let c = daemon.counters();
        assert_eq!(c.panics, 0, "seed {seed}: server handler panicked");
        assert_eq!(c.malformed as usize, report.malformed_injected, "seed {seed}");
        assert_eq!(c.disconnects as usize, report.disconnects_injected, "seed {seed}");
        assert_eq!(c.deadline_expired as usize, report.deadline_injected, "seed {seed}");
        assert_eq!(c.shed_overload as usize, report.burst_shed, "seed {seed}");
        assert_eq!(c.shed_draining, 0, "seed {seed}: nothing drains in this run");
        let expected_served: usize = report
            .outcomes
            .iter()
            .filter(|o| script[o.index].is_admitted() && matches!(o.reply, Reply::Ok(_)))
            .count()
            + report.burst_ok;
        assert_eq!(c.served as usize, expected_served, "seed {seed}");

        // Event-log reconciliation: the drainable log tells the same
        // story as the counters, in occurrence order.
        let events = daemon.take_events();
        let mut ev_malformed = 0usize;
        let mut ev_disconnect = 0usize;
        let mut ev_deadline = 0usize;
        let mut ev_overload = 0usize;
        for e in &events {
            match e {
                ServeEvent::Malformed { .. } => ev_malformed += 1,
                ServeEvent::Disconnect { partial } => {
                    assert!(*partial > 0);
                    ev_disconnect += 1;
                }
                ServeEvent::Shed { reason: ShedReason::DeadlineExpired, .. }
                | ServeEvent::DeadlineExpired { .. } => ev_deadline += 1,
                ServeEvent::Shed { reason: ShedReason::Overloaded, op } => {
                    assert_eq!(op, "query-mapping");
                    ev_overload += 1;
                }
                ServeEvent::Panicked { op, payload } => {
                    panic!("seed {seed}: handler panic on `{op}`: {payload}")
                }
                other => panic!("seed {seed}: unexpected event {other:?}"),
            }
        }
        assert_eq!(ev_malformed, report.malformed_injected, "seed {seed}");
        assert_eq!(ev_disconnect, report.disconnects_injected, "seed {seed}");
        assert_eq!(ev_deadline, report.deadline_injected, "seed {seed}");
        assert_eq!(ev_overload, report.burst_shed, "seed {seed}");
    }

    // The matrix exercised every fault class at least once.
    for kind in ServeFaultKind::ALL {
        assert!(
            classes_seen.contains(&kind),
            "matrix never injected {kind}; widen the script or adjust seeds"
        );
    }
}

/// Deterministic overload: with one worker and a zero-length wait queue,
/// a held slot sheds every query with a typed `overloaded` reply — and
/// `health`, being control-plane, keeps answering throughout.
#[test]
fn overload_sheds_typed_while_health_answers() {
    let state = demo_state();
    let config = ServeConfig {
        admission: AdmissionConfig::new(1, 0),
        enable_debug_ops: true,
        journal_dir: None,
    };
    let daemon = ServeDaemon::spawn(state, config).unwrap();
    let addr = daemon.addr();

    let hold = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).unwrap();
        c.request(&Request::DebugSleep { ms: 1500 })
    });

    // Wait until the sleeper holds the only worker slot.
    let started = Instant::now();
    loop {
        let mut c = ServeClient::connect(addr).unwrap();
        match c.request(&Request::Health).unwrap() {
            Reply::Ok(v) => {
                if matches!(v.get("active"), Some(Value::Num(n)) if *n >= 1.0) {
                    break;
                }
            }
            other => panic!("health failed: {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "sleeper was never admitted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    for i in 0..6 {
        let mut c = ServeClient::connect(addr).unwrap();
        let reply = c
            .request(&Request::QueryMapping {
                sequences: vec!["overload probe".to_string()],
                k: 1,
                deadline_ms: None,
                mode: None,
            })
            .unwrap();
        match reply {
            Reply::Err(e) => assert_eq!(e.kind, ErrKind::Overloaded, "probe {i}"),
            other => panic!("probe {i}: expected a typed overload shed, got {other:?}"),
        }
    }

    // Control-plane bypass: health answers while the data plane is full.
    let mut c = ServeClient::connect(addr).unwrap();
    assert!(matches!(c.request(&Request::Health).unwrap(), Reply::Ok(_)));

    match hold.join().unwrap().unwrap() {
        Reply::Ok(_) => {}
        other => panic!("held request did not complete: {other:?}"),
    }
    let c = daemon.counters();
    assert_eq!(c.shed_overload, 6);
    assert_eq!(c.served, 1, "only the sleeper did admitted work");
    assert_eq!(c.panics, 0);
}

/// Debug ops are a test-harness affordance: a production-configured
/// daemon answers them with a typed `unknown_op`, never executes them.
#[test]
fn debug_ops_are_gated_by_config() {
    let state = demo_state();
    let daemon = ServeDaemon::spawn(state, ServeConfig::default()).unwrap();
    let mut c = ServeClient::connect(daemon.addr()).unwrap();
    for req in [Request::DebugSleep { ms: 5 }, Request::DebugPanic] {
        match c.request(&req).unwrap() {
            Reply::Err(e) => {
                assert_eq!(e.kind, ErrKind::UnknownOp);
                assert!(e.message.contains("disabled"), "{}", e.message);
            }
            other => panic!("gated op answered {other:?}"),
        }
    }
    assert_eq!(daemon.counters().panics, 0);
    assert_eq!(daemon.counters().served, 0);
}
