//! Degradation cost of assimilation under manual corruption.
//!
//! Runs the same generated manual through `assimilate` twice — once
//! clean, once with a seeded [`CorruptionPlan`] injecting every
//! corruption class — and records how ingestion degraded: pages
//! corrupted / quarantined / recovered, per-class injection counts,
//! clean-subset parity against the baseline, diagnostic volume, and
//! wall-clock for both runs. Writes `BENCH_ingest_robustness.json` and
//! fails (non-zero exit) if a clean page was dragged down with the
//! corrupted ones.

use nassim::datasets::corrupt::{CorruptKind, CorruptionPlan};
use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;
use nassim_bench::gates::ingest_robustness as gates;
use nassim_bench::report::Report;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

const GEN_SEED: u64 = 900;
const CORRUPT_SEED: u64 = 17;
const CORRUPT_RATE: f64 = 0.15;

#[derive(serde::Serialize)]
struct RunStats {
    total_pages: usize,
    parsed: usize,
    skipped: usize,
    failed: usize,
    quarantined: usize,
    diagnostics: usize,
    cli_view_pairs: usize,
    wall_ms: f64,
}

#[derive(serde::Serialize)]
struct InjectionCount {
    kind: String,
    count: usize,
}

#[derive(serde::Serialize)]
struct RobustnessBench {
    corrupt_seed: u64,
    corrupt_rate: f64,
    baseline: RunStats,
    chaos: RunStats,
    injections: Vec<InjectionCount>,
    pages_corrupted: usize,
    pages_quarantined: usize,
    /// Corrupted pages the pipeline still extracted an entry from.
    pages_recovered: usize,
    /// Uncorrupted pages whose extracted entry is byte-identical to the
    /// clean baseline (must equal `clean_pages` for parity to hold).
    clean_pages: usize,
    clean_subset_parity: bool,
}

fn run_stats(a: &nassim::pipeline::Assimilation, wall_ms: f64) -> RunStats {
    RunStats {
        total_pages: a.parse.report.total_pages,
        parsed: a.parse.report.parsed,
        skipped: a.parse.report.skipped,
        failed: a.parse.report.failed,
        quarantined: a.parse.report.quarantined,
        diagnostics: a.diagnostics.len(),
        cli_view_pairs: a.build.vdm.cli_view_pairs(),
        wall_ms,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report = Report::new("ingest_robustness");
    let catalog = Catalog::base();
    let st = style::vendor("helix")?;
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: GEN_SEED,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let parser = parser_for("helix")?;
    println!(
        "Ingest robustness: {} helix pages, corruption seed {CORRUPT_SEED} rate {CORRUPT_RATE}",
        manual.pages.len()
    );

    // ── Clean baseline. ───────────────────────────────────────────────
    let t = Instant::now();
    let base = assimilate(
        parser.as_ref(),
        manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )?;
    let base_ms = t.elapsed().as_secs_f64() * 1e3;
    let baseline = run_stats(&base, base_ms);
    println!(
        "  baseline: {}/{} parsed, {} diagnostics, {:.1} ms",
        baseline.parsed, baseline.total_pages, baseline.diagnostics, baseline.wall_ms
    );
    let base_entries: HashMap<&str, &nassim::corpus::CorpusEntry> = base
        .parse
        .pages
        .iter()
        .map(|p| (p.url.as_str(), &p.entry))
        .collect();

    // ── Chaos run: every class at CORRUPT_RATE. ───────────────────────
    let plan = CorruptionPlan::uniform(CORRUPT_SEED, CORRUPT_RATE);
    let mut pages = manual.pages.clone();
    let pages_corrupted = plan.corrupt_pages(&mut pages);
    let injected = plan.take_injections();
    let corrupted: HashSet<&str> = injected.iter().map(|c| c.subject.as_str()).collect();

    let t = Instant::now();
    let out = assimilate(
        parser.as_ref(),
        pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )?;
    let chaos_ms = t.elapsed().as_secs_f64() * 1e3;
    let chaos = run_stats(&out, chaos_ms);

    let injections: Vec<InjectionCount> = CorruptKind::ALL
        .iter()
        .map(|k| InjectionCount {
            kind: k.to_string(),
            count: injected.iter().filter(|c| c.kind == *k).count(),
        })
        .collect();
    let pages_recovered = out
        .parse
        .pages
        .iter()
        .filter(|p| corrupted.contains(p.url.as_str()))
        .count();

    // Clean-subset parity: every uncorrupted baseline page must still
    // parse to a byte-identical entry.
    let mut clean_pages = 0usize;
    let mut parity = true;
    for (url, entry) in &base_entries {
        if corrupted.contains(url) {
            continue;
        }
        clean_pages += 1;
        match out.parse.pages.iter().find(|p| p.url == *url) {
            Some(p) if &&p.entry == entry => {}
            _ => {
                parity = false;
                eprintln!("  PARITY BREAK: clean page {url} changed or vanished");
            }
        }
    }

    println!(
        "  chaos:    {}/{} parsed, {} quarantined, {} failed, {} diagnostics, {:.1} ms",
        chaos.parsed, chaos.total_pages, chaos.quarantined, chaos.failed,
        chaos.diagnostics, chaos.wall_ms
    );
    for i in &injections {
        println!("    {:<16} {:>3} injected", i.kind, i.count);
    }
    println!(
        "  {} corrupted: {} recovered, {} quarantined; {} clean pages parity={}",
        pages_corrupted, pages_recovered, chaos.quarantined, clean_pages, parity
    );

    let bench = RobustnessBench {
        corrupt_seed: CORRUPT_SEED,
        corrupt_rate: CORRUPT_RATE,
        baseline,
        chaos,
        injections,
        pages_corrupted,
        pages_quarantined: out.parse.report.quarantined,
        pages_recovered,
        clean_pages,
        clean_subset_parity: parity,
    };
    report.gate(&gates::CLEAN_SUBSET_PARITY, parity);
    report.finish(&bench)
}
