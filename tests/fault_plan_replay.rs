//! Golden replay of the four seeded fault plans.
//!
//! A fault run is evidence only if it replays exactly from its seed. Each
//! fixture under `tests/fixtures/fault_plans/` is the injection log of one
//! chaos-matrix cell — the matrix's own seeds and rates — over 256
//! decisions, one injection per line as `seq kind subject [offset]`. Any
//! change to the draw discipline (class order, draws per decision, the
//! first-applicable-hit rule, the crash plan's offset draw) shows up here
//! as a diff against a log recorded before that change.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::corrupt::{CorruptKind, CorruptionPlan};
use nassim::{decide_crash, CrashPlan, PersistOp};
use nassim_device::faults::FaultPlan;
use nassim_serve::ServeFaultPlan;
use std::fmt::Write as _;
use std::path::Path;

/// Decisions asked of every plan.
const DECISIONS: usize = 256;

/// Device and serving chaos matrices (`tests/device_chaos.rs`,
/// `tests/serve_chaos.rs`).
const CHANNEL_SEEDS: [u64; 3] = [1, 7, 23];
const CHANNEL_RATE: f64 = 0.12;

/// Ingestion chaos matrix (`tests/ingest_chaos.rs`).
const CORRUPT_SEEDS: [u64; 3] = [2, 11, 29];
const CORRUPT_RATE: f64 = 0.12;

/// Crash chaos matrix (`tests/crash_chaos.rs`): 0.7 for store saves, 0.4
/// for journal appends.
const CRASH_SEEDS: [u64; 3] = [3, 11, 42];
const CRASH_RATES: [f64; 2] = [0.7, 0.4];

/// Compare a rendered log against its fixture, reporting the first line
/// that differs.
fn check(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fault_plans")
        .join(format!("{name}.log"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let line = g
        .iter()
        .zip(&w)
        .position(|(a, b)| a != b)
        .unwrap_or(g.len().min(w.len()));
    panic!(
        "{name}: replay diverged at line {} (got {:?}, want {:?}; {} vs {} lines)",
        line + 1,
        g.get(line),
        w.get(line),
        g.len(),
        w.len()
    );
}

#[test]
fn device_plans_replay_their_recorded_logs() {
    for seed in CHANNEL_SEEDS {
        let plan = FaultPlan::uniform(seed, CHANNEL_RATE);
        for i in 0..DECISIONS {
            plan.decide(&format!("req-{i}"));
        }
        let mut log = String::new();
        for f in plan.take_injections() {
            writeln!(log, "{} {} {}", f.seq, f.kind, f.subject).unwrap();
        }
        check(&format!("device-{seed}"), &log);
    }
}

#[test]
fn serve_plans_replay_their_recorded_logs() {
    for seed in CHANNEL_SEEDS {
        let plan = ServeFaultPlan::uniform(seed, CHANNEL_RATE);
        for i in 0..DECISIONS {
            plan.decide(&i);
        }
        let mut log = String::new();
        for f in plan.take_injections() {
            writeln!(log, "{} {} {}", f.seq, f.kind, f.subject).unwrap();
        }
        check(&format!("serve-{seed}"), &log);
    }
}

#[test]
fn corruption_plans_replay_their_recorded_logs() {
    let render = |plan: &CorruptionPlan| {
        for i in 0..DECISIONS {
            plan.decide(&format!("manual://x/{i}"));
        }
        let mut log = String::new();
        for c in plan.take_injections() {
            writeln!(log, "{} {} {}", c.seq, c.kind, c.subject).unwrap();
        }
        log
    };
    for seed in CORRUPT_SEEDS {
        let uniform = CorruptionPlan::uniform(seed, CORRUPT_RATE);
        check(&format!("corrupt-{seed}-uniform"), &render(&uniform));
        for kind in CorruptKind::ALL {
            let only = CorruptionPlan::only(seed, kind, CORRUPT_RATE);
            check(&format!("corrupt-{seed}-{kind}"), &render(&only));
        }
    }
}

#[test]
fn crash_plans_replay_their_recorded_logs() {
    let (store, journal) = (Path::new("store.json"), Path::new("journal.log"));
    for seed in CRASH_SEEDS {
        for rate in CRASH_RATES {
            let plan = CrashPlan::uniform(seed, rate);
            // Interleaved operations of varying length, down to one byte,
            // so offsets exercise the strictly-short clamp.
            for i in 0..DECISIONS {
                if i % 3 == 0 {
                    decide_crash(&plan, PersistOp::JournalAppend, journal, 1 + (i * 37) % 300);
                } else {
                    decide_crash(&plan, PersistOp::StoreWrite, store, 1 + (i * 977) % 8192);
                }
            }
            let mut log = String::new();
            for c in plan.take_injections() {
                write!(log, "{} {} {}", c.seq, c.kind, c.subject.path).unwrap();
                if let Some(offset) = c.subject.offset {
                    write!(log, " {offset}").unwrap();
                }
                log.push('\n');
            }
            check(&format!("crash-{seed}-{rate}"), &log);
        }
    }
}
