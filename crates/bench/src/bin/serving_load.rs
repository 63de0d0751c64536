//! Serving-layer resilience and latency bench for the `nassim-serve`
//! daemon. Three phases, every one gated:
//!
//! 1. **Chaos matrix** — three seeds of the client fault plan (slow-loris,
//!    mid-frame disconnects, malformed frames, zero deadlines, burst
//!    volleys) against a fresh daemon each, reconciled for byte parity
//!    against a fault-free baseline and for exact fault accounting
//!    against the daemon's counters;
//! 2. **Open-loop load** — concurrent clients issuing mapper queries,
//!    measuring p50/p99 latency and QPS;
//! 3. **Deterministic overload** — one worker, zero queue, a held slot:
//!    every probe must shed with a typed `overloaded` reply while
//!    `health` keeps answering.
//!
//! Writes `BENCH_serving.json` and exits non-zero if any gate fails:
//! a server panic, a parity violation, an accounting mismatch, a seed
//! that injected nothing, an unaccounted or errored load reply, a load
//! phase with no latency or throughput, or an overload probe that was
//! not shed (see [`nassim_bench::gates::serving`]). Latency values are
//! gated only for being measured at all — they are machine-relative.

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim_bench::gates::serving as gates;
use nassim_bench::report::Report;
use nassim_serve::{
    run_chaos, AdmissionConfig, ChaosOptions, ErrKind, Reply, Request, ServeClient, ServeConfig,
    ServeDaemon, ServeFaultKind, ServeFaultPlan, ServeState, StateOptions,
};
use serde::Value;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: [u64; 3] = [1, 7, 23];
const RATE: f64 = 0.12;
const LOAD_CLIENTS: usize = 8;
const LOAD_REQUESTS_PER_CLIENT: usize = 25;
const OVERLOAD_PROBES: usize = 12;

#[derive(serde::Serialize)]
struct SeedChaos {
    seed: u64,
    injected_total: usize,
    slow_loris: usize,
    disconnect: usize,
    malformed: usize,
    deadline: usize,
    burst: usize,
    burst_ok: usize,
    burst_shed: usize,
    parity_checked: usize,
    parity_violations: usize,
    accounting_mismatches: usize,
    panics: u64,
}

#[derive(serde::Serialize)]
struct LoadStats {
    clients: usize,
    requests_per_client: usize,
    issued: usize,
    ok: usize,
    shed: usize,
    errors: usize,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    qps: f64,
    wall_ms: f64,
}

#[derive(serde::Serialize)]
struct OverloadStats {
    workers: usize,
    queue: usize,
    issued: usize,
    shed: usize,
    shed_rate: f64,
    health_answered_under_overload: bool,
    held_request_completed: bool,
}

#[derive(serde::Serialize)]
struct ServingBench {
    build_ms: f64,
    vendors: usize,
    mapper_candidates: usize,
    chaos_rate: f64,
    chaos: Vec<SeedChaos>,
    fault_classes_seen: usize,
    load: LoadStats,
    overload: OverloadStats,
    zero_panics: bool,
    parity_violations_total: usize,
    accounting_mismatches_total: usize,
}

fn chaos_script() -> Vec<Request> {
    #[allow(clippy::expect_used)]
    let st = style::vendor("cirrus").expect("cirrus style");
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
    script
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn health_num(addr: std::net::SocketAddr, field: &str) -> Option<f64> {
    let mut c = ServeClient::connect(addr).ok()?;
    match c.request(&Request::Health).ok()? {
        Reply::Ok(v) => match v.get(field) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        },
        _ => None,
    }
}

fn chaos_phase(
    state: &Arc<ServeState>,
    script: &[Request],
) -> Result<Vec<SeedChaos>, Box<dyn std::error::Error>> {
    let opts = ChaosOptions::default();
    let baseline_daemon = ServeDaemon::spawn(Arc::clone(state), ServeConfig::default())?;
    let baseline = run_chaos(baseline_daemon.addr(), script, None, &opts)?;
    drop(baseline_daemon);
    for o in &baseline.outcomes {
        if !matches!(o.reply, Reply::Ok(_)) {
            return Err(format!("baseline request {} failed: {:?}", o.index, o.reply).into());
        }
    }

    let mut results = Vec::new();
    for seed in SEEDS {
        let daemon = ServeDaemon::spawn(Arc::clone(state), ServeConfig::default())?;
        let plan = ServeFaultPlan::uniform(seed, RATE);
        let report = run_chaos(daemon.addr(), script, Some(&plan), &opts)?;
        let injections = plan.take_injections();
        let by_kind = |k: ServeFaultKind| injections.iter().filter(|f| f.kind == k).count();

        let mut parity_checked = 0usize;
        let mut parity_violations = 0usize;
        for o in &report.outcomes {
            match o.fault {
                None
                | Some(ServeFaultKind::SlowLoris)
                | Some(ServeFaultKind::Disconnect)
                | Some(ServeFaultKind::Burst) => {
                    parity_checked += 1;
                    if o.raw != baseline.outcomes[o.index].raw {
                        parity_violations += 1;
                        eprintln!("  seed {seed}: request {} lost byte parity", o.index);
                    }
                }
                Some(ServeFaultKind::Malformed) => {
                    if !matches!(&o.reply, Reply::Err(e) if e.kind == ErrKind::Malformed) {
                        parity_violations += 1;
                    }
                }
                Some(ServeFaultKind::Deadline) => {
                    if !matches!(&o.reply, Reply::Err(e) if e.kind == ErrKind::Deadline) {
                        parity_violations += 1;
                    }
                }
            }
        }

        // Disconnect accounting is asynchronous (session threads notice
        // the vanished peer on their own clock) — wait for it to settle.
        let waiting = Instant::now();
        while daemon.counters().disconnects < report.disconnects_injected as u64
            && waiting.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(10));
        }

        let c = daemon.counters();
        let expected_served: usize = report
            .outcomes
            .iter()
            .filter(|o| script[o.index].is_admitted() && matches!(o.reply, Reply::Ok(_)))
            .count()
            + report.burst_ok;
        let mut accounting_mismatches = 0usize;
        for (name, got, want) in [
            ("malformed", c.malformed as usize, report.malformed_injected),
            ("disconnects", c.disconnects as usize, report.disconnects_injected),
            ("deadline_expired", c.deadline_expired as usize, report.deadline_injected),
            ("shed_overload", c.shed_overload as usize, report.burst_shed),
            ("shed_draining", c.shed_draining as usize, 0),
            ("served", c.served as usize, expected_served),
            ("burst_other", report.burst_other, 0),
        ] {
            if got != want {
                accounting_mismatches += 1;
                eprintln!("  seed {seed}: {name} counter {got} != expected {want}");
            }
        }

        results.push(SeedChaos {
            seed,
            injected_total: injections.len(),
            slow_loris: by_kind(ServeFaultKind::SlowLoris),
            disconnect: by_kind(ServeFaultKind::Disconnect),
            malformed: by_kind(ServeFaultKind::Malformed),
            deadline: by_kind(ServeFaultKind::Deadline),
            burst: by_kind(ServeFaultKind::Burst),
            burst_ok: report.burst_ok,
            burst_shed: report.burst_shed,
            parity_checked,
            parity_violations,
            accounting_mismatches,
            panics: c.panics,
        });
        println!(
            "  seed {seed}: {} injected, {} parity-checked, {} violations, {} mismatches, {} panics",
            injections.len(),
            parity_checked,
            parity_violations,
            accounting_mismatches,
            c.panics
        );
    }
    Ok(results)
}

fn load_phase(state: &Arc<ServeState>) -> Result<LoadStats, Box<dyn std::error::Error>> {
    let daemon = ServeDaemon::spawn(
        Arc::clone(state),
        ServeConfig {
            admission: AdmissionConfig::new(4, 16),
            enable_debug_ops: false,
            journal_dir: None,
        },
    )?;
    let addr = daemon.addr();
    let t = Instant::now();
    let workers: Vec<_> = (0..LOAD_CLIENTS)
        .map(|w| {
            std::thread::spawn(move || -> (Vec<f64>, usize, usize, usize) {
                let mut latencies = Vec::with_capacity(LOAD_REQUESTS_PER_CLIENT);
                let (mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize);
                let Ok(mut client) = ServeClient::connect(addr) else {
                    return (latencies, ok, shed, LOAD_REQUESTS_PER_CLIENT);
                };
                for i in 0..LOAD_REQUESTS_PER_CLIENT {
                    let request = Request::QueryMapping {
                        sequences: vec![format!("load probe {w} {i} interface mtu")],
                        k: 3,
                        deadline_ms: None,
                        mode: None,
                    };
                    let rt = Instant::now();
                    match client.request(&request) {
                        Ok(Reply::Ok(_)) => {
                            latencies.push(rt.elapsed().as_secs_f64() * 1e3);
                            ok += 1;
                        }
                        Ok(Reply::Err(e)) if e.kind == ErrKind::Overloaded => shed += 1,
                        _ => errors += 1,
                    }
                }
                (latencies, ok, shed, errors)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let (mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize);
    for w in workers {
        let (l, o, s, e) = w.join().unwrap_or((Vec::new(), 0, 0, LOAD_REQUESTS_PER_CLIENT));
        latencies.extend(l);
        ok += o;
        shed += s;
        errors += e;
    }
    let wall = t.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let issued = LOAD_CLIENTS * LOAD_REQUESTS_PER_CLIENT;
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    Ok(LoadStats {
        clients: LOAD_CLIENTS,
        requests_per_client: LOAD_REQUESTS_PER_CLIENT,
        issued,
        ok,
        shed,
        errors,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        mean_ms: mean,
        qps: issued as f64 / wall,
        wall_ms: wall * 1e3,
    })
}

fn overload_phase(state: &Arc<ServeState>) -> Result<OverloadStats, Box<dyn std::error::Error>> {
    let cfg = AdmissionConfig::new(1, 0);
    let daemon = ServeDaemon::spawn(
        Arc::clone(state),
        ServeConfig {
            admission: cfg,
            enable_debug_ops: true,
            journal_dir: None,
        },
    )?;
    let addr = daemon.addr();
    let hold = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).ok()?;
        c.request(&Request::DebugSleep { ms: 2000 }).ok()
    });
    let started = Instant::now();
    while health_num(addr, "active") != Some(1.0) {
        if started.elapsed() > Duration::from_secs(10) {
            return Err("overload sleeper was never admitted".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut shed = 0usize;
    for _ in 0..OVERLOAD_PROBES {
        let mut c = ServeClient::connect(addr)?;
        if matches!(
            c.request(&Request::QueryMapping {
                sequences: vec!["overload probe".to_string()],
                k: 1,
                deadline_ms: None,
                mode: None,
            })?,
            Reply::Err(e) if e.kind == ErrKind::Overloaded
        ) {
            shed += 1;
        }
    }
    let health_answered = health_num(addr, "workers").is_some();
    let held_completed = matches!(hold.join().ok().flatten(), Some(Reply::Ok(_)));
    Ok(OverloadStats {
        workers: cfg.workers,
        queue: cfg.queue,
        issued: OVERLOAD_PROBES,
        shed,
        shed_rate: shed as f64 / (OVERLOAD_PROBES + 1) as f64,
        health_answered_under_overload: health_answered,
        held_request_completed: held_completed,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Serving bench: chaos matrix, open-loop load, deterministic overload");
    let mut report = Report::new("serving");
    let t = Instant::now();
    let (state, _) = ServeState::build(&StateOptions::default())?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let state = Arc::new(state);
    println!(
        "  catalog built in {build_ms:.0} ms: {} vendor(s), {} mapper candidates",
        state.vendors.len(),
        state.mapper.candidate_count()
    );
    let script = chaos_script();

    println!("Chaos matrix: {} seeds x rate {RATE}, {} requests", SEEDS.len(), script.len());
    let chaos = chaos_phase(&state, &script)?;
    let classes_seen: HashSet<ServeFaultKind> = chaos
        .iter()
        .flat_map(|s| {
            let mut kinds = Vec::new();
            if s.slow_loris > 0 {
                kinds.push(ServeFaultKind::SlowLoris);
            }
            if s.disconnect > 0 {
                kinds.push(ServeFaultKind::Disconnect);
            }
            if s.malformed > 0 {
                kinds.push(ServeFaultKind::Malformed);
            }
            if s.deadline > 0 {
                kinds.push(ServeFaultKind::Deadline);
            }
            if s.burst > 0 {
                kinds.push(ServeFaultKind::Burst);
            }
            kinds
        })
        .collect();

    println!("Open-loop load: {LOAD_CLIENTS} clients x {LOAD_REQUESTS_PER_CLIENT} queries");
    let load = load_phase(&state)?;
    println!(
        "  p50 {:.2} ms, p99 {:.2} ms, {:.0} QPS, {}/{} ok, {} shed, {} errors",
        load.p50_ms, load.p99_ms, load.qps, load.ok, load.issued, load.shed, load.errors
    );

    println!("Deterministic overload: 1 worker, 0 queue, {OVERLOAD_PROBES} probes into a held slot");
    let overload = overload_phase(&state)?;
    println!(
        "  {}/{} shed (rate {:.2}), health answered: {}, held request completed: {}",
        overload.shed,
        overload.issued,
        overload.shed_rate,
        overload.health_answered_under_overload,
        overload.held_request_completed
    );

    let bench = ServingBench {
        build_ms,
        vendors: state.vendors.len(),
        mapper_candidates: state.mapper.candidate_count(),
        chaos_rate: RATE,
        fault_classes_seen: classes_seen.len(),
        zero_panics: chaos.iter().all(|s| s.panics == 0),
        parity_violations_total: chaos.iter().map(|s| s.parity_violations).sum(),
        accounting_mismatches_total: chaos.iter().map(|s| s.accounting_mismatches).sum(),
        chaos,
        load,
        overload,
    };
    report.gate(&gates::ZERO_PANICS, bench.zero_panics);
    report.gate(&gates::PARITY_VIOLATIONS, bench.parity_violations_total);
    report.gate(&gates::ACCOUNTING_MISMATCHES, bench.accounting_mismatches_total);
    report.gate(&gates::FAULT_CLASSES, bench.fault_classes_seen);
    report.gate(&gates::CHAOS_SEEDS, bench.chaos.len());
    for s in &bench.chaos {
        report.gate_at(&gates::INJECTED, format!("seed {}", s.seed), s.injected_total);
    }
    let load = &bench.load;
    report.gate(
        &gates::LOAD_UNACCOUNTED,
        load.issued as f64 - (load.ok + load.shed + load.errors) as f64,
    );
    report.gate(&gates::LOAD_ERRORS, load.errors);
    report.gate(&gates::LOAD_P50, load.p50_ms);
    report.gate(&gates::LOAD_P99_SPREAD, load.p99_ms - load.p50_ms);
    report.gate(&gates::LOAD_QPS, load.qps);
    let overload = &bench.overload;
    report.gate(&gates::OVERLOAD_UNSHED, overload.issued as f64 - overload.shed as f64);
    report.gate(&gates::HEALTH_UNDER_OVERLOAD, overload.health_answered_under_overload);
    report.gate(&gates::HELD_COMPLETED, overload.held_request_completed);
    report.finish(&bench)
}
