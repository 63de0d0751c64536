//! Resilience overhead of the §5.3 live-device loop under fault
//! injection.
//!
//! Runs the same node set through `validate_on_device_with` twice — once
//! against a faithful device, once against a device with a seeded
//! [`FaultPlan`] injecting every fault class — and records what the
//! retry/reconnect machinery cost: wall-clock per run, per-class
//! injection counts, retries, reconnects, and the added latency per
//! pushed node. Writes `BENCH_device_resilience.json` and exits non-zero
//! if the chaos run accepted or read back a different node count than
//! the baseline.

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::deviceize::{spawn_device, DeviceSpawnOptions};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim_bench::gates::device_resilience as gates;
use nassim_bench::report::Report;
use nassim_device::faults::{FaultKind, FaultPlan};
use nassim_device::resilient::{ResiliencePolicy, WallClock};
use nassim_validator::{validate_on_device_with, DevicePush};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FAULT_SEED: u64 = 17;
const FAULT_RATE: f64 = 0.15;
const INSTANCE_SEED: u64 = 42;
const NODE_BUDGET: usize = 60;

#[derive(serde::Serialize)]
struct RunStats {
    nodes_tested: usize,
    accepted: usize,
    readback_ok: usize,
    failures: usize,
    degraded: usize,
    retries: u64,
    reconnects: u64,
    wall_ms: f64,
    ms_per_node: f64,
}

#[derive(serde::Serialize)]
struct InjectionCount {
    kind: String,
    count: usize,
}

#[derive(serde::Serialize)]
struct ResilienceBench {
    fault_seed: u64,
    fault_rate: f64,
    baseline: RunStats,
    chaos: RunStats,
    injections: Vec<InjectionCount>,
    injected_total: usize,
    added_ms_per_node: f64,
}

fn chaos_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        op_timeout: Duration::from_millis(60),
        connect_timeout: ResiliencePolicy::CONNECT_TIMEOUT,
        max_retries: 16,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(80),
        retry_budget: 100_000,
    }
}

fn run_stats(out: &nassim_validator::DeviceValidation, wall_ms: f64) -> RunStats {
    RunStats {
        nodes_tested: out.nodes_tested,
        accepted: out.accepted,
        readback_ok: out.readback_ok,
        failures: out.failures.len(),
        degraded: out.degraded.len(),
        retries: out.retries,
        reconnects: out.reconnects,
        wall_ms,
        ms_per_node: if out.nodes_tested > 0 {
            wall_ms / out.nodes_tested as f64
        } else {
            0.0
        },
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report = Report::new("device_resilience");
    let catalog = Catalog::base();
    let st = style::vendor("helix")?;
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
        parser_for("helix")?.as_ref(),
        manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )?;
    let vdm = &a.build.vdm;
    let nodes: Vec<_> = vdm.walk().into_iter().take(NODE_BUDGET).collect();
    println!("Device resilience: {} nodes, helix manual", nodes.len());

    let cfg = DevicePush {
        seed: INSTANCE_SEED,
        policy: chaos_policy(),
        clock: Arc::new(WallClock),
        node_attempts: 8,
    };

    // Fault-free baseline.
    let mut server = spawn_device(&catalog, &st, DeviceSpawnOptions::default())?;
    let t = Instant::now();
    let base = validate_on_device_with(vdm, &nodes, server.addr(), &cfg)?;
    let base_ms = t.elapsed().as_secs_f64() * 1e3;
    server.stop();
    let baseline = run_stats(&base, base_ms);
    println!(
        "  baseline: {}/{} accepted, {} read back, {:.1} ms",
        baseline.accepted, baseline.nodes_tested, baseline.readback_ok, baseline.wall_ms
    );

    // Chaos run: every fault class at FAULT_RATE; the delay fault stalls
    // just past the client deadline so it is observed but cheap.
    let plan = Arc::new(
        FaultPlan::uniform(FAULT_SEED, FAULT_RATE).with_delay(Duration::from_millis(90)),
    );
    let mut server = spawn_device(
        &catalog,
        &st,
        DeviceSpawnOptions { faults: Some(Arc::clone(&plan)) },
    )?;
    let t = Instant::now();
    let out = validate_on_device_with(vdm, &nodes, server.addr(), &cfg)?;
    let chaos_ms = t.elapsed().as_secs_f64() * 1e3;
    server.stop();
    let chaos = run_stats(&out, chaos_ms);

    let injected = plan.take_injections();
    let injections: Vec<InjectionCount> = FaultKind::ALL
        .iter()
        .map(|k| InjectionCount {
            kind: format!("{k:?}"),
            count: injected.iter().filter(|f| f.kind == *k).count(),
        })
        .collect();
    println!(
        "  chaos:    {}/{} accepted, {} read back, {:.1} ms ({} faults injected, {} retries, {} reconnects, {} degraded)",
        chaos.accepted,
        chaos.nodes_tested,
        chaos.readback_ok,
        chaos.wall_ms,
        injected.len(),
        chaos.retries,
        chaos.reconnects,
        chaos.degraded
    );
    for i in &injections {
        println!("    {:<8} {:>4} injected", i.kind, i.count);
    }
    report.gate(&gates::ACCEPTED, chaos.accepted == baseline.accepted);
    report.gate(&gates::READBACK, chaos.readback_ok == baseline.readback_ok);

    let bench = ResilienceBench {
        fault_seed: FAULT_SEED,
        fault_rate: FAULT_RATE,
        added_ms_per_node: chaos.ms_per_node - baseline.ms_per_node,
        injected_total: injected.len(),
        baseline,
        chaos,
        injections,
    };
    println!(
        "  masking overhead: {:+.2} ms per node",
        bench.added_ms_per_node
    );
    report.finish(&bench)
}
