//! Seeded crash-injection matrix: every durable-write kill point
//! (truncated temp file, skipped rename, torn journal append) across
//! three seeds, with two oracles:
//!
//! * **zero committed-artifact loss** — no injected crash may change or
//!   corrupt a committed store file; the previously committed bytes
//!   load strictly after every failed save;
//! * **prefix-valid replay** — a journal torn mid-append recovers to
//!   exactly the applied prefix at reopen, and retrying the torn record
//!   (at-least-once) converges to the uninterrupted end state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::html::IngestBudget;
use nassim::parser::parser_for;
use nassim::{
    assimilate_incremental, orphan_count, ArtifactStore, CrashPlan, CrashPoint,
};
use nassim_diag::NassimError;
use nassim_serve::{JobJournal, JournalRecord};
use serde::Value;
use std::collections::HashSet;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [3, 11, 42];

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nassim-crash-chaos-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store populated by really assimilating a generated manual.
fn populated_store(pages: usize) -> ArtifactStore {
    let st = style::vendor("cirrus").unwrap();
    let manual = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 77,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let refs: Vec<(&str, &str)> = manual
        .pages
        .iter()
        .take(pages)
        .map(|p| (p.url.as_str(), p.html.as_str()))
        .collect();
    let mut store = ArtifactStore::new();
    let parser = parser_for("cirrus").unwrap();
    assimilate_incremental(parser.as_ref(), refs, &IngestBudget::default(), &mut store).unwrap();
    store
}

#[test]
fn seeded_save_crashes_never_lose_the_committed_store() {
    let committed_store = populated_store(2);
    let next_store = populated_store(4);
    let mut classes: HashSet<CrashPoint> = HashSet::new();

    for seed in SEEDS {
        let dir = temp_dir("store", seed);
        let path = dir.join("artifacts.json");
        committed_store.save(&path).unwrap();
        let committed = std::fs::read(&path).unwrap();

        // Keep trying to commit the next version under a hostile plan;
        // every failed attempt must leave the old commit byte-intact
        // and strictly loadable.
        let plan = CrashPlan::uniform(seed, 0.7);
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts <= 200, "seed {seed}: rate-0.7 plan never let a save through");
            match next_store.save_with(&path, Some(&plan)) {
                Ok(()) => break,
                Err(e) => {
                    assert!(
                        matches!(e, NassimError::CrashInjected { .. }),
                        "seed {seed}: unexpected save error {e}"
                    );
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        committed,
                        "seed {seed}: a crashed save changed the committed bytes"
                    );
                    ArtifactStore::load(&path).unwrap_or_else(|e| {
                        panic!("seed {seed}: committed store corrupted: {e}")
                    });
                }
            }
        }
        classes.extend(plan.take_injections().iter().map(|i| i.kind));

        // The new commit is complete, valid, and the litter of every
        // crashed attempt has been swept.
        assert_ne!(std::fs::read(&path).unwrap(), committed);
        ArtifactStore::load(&path).unwrap();
        assert_eq!(orphan_count(&path), 0, "seed {seed}: orphan temp files survived");
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        classes.contains(&CrashPoint::TruncateTemp) && classes.contains(&CrashPoint::SkipRename),
        "matrix never exercised both store crash classes: {classes:?}"
    );
}

#[test]
fn seeded_torn_appends_replay_the_prefix_and_converge() {
    let mut torn_total = 0u64;
    for seed in SEEDS {
        let dir = temp_dir("journal", seed);
        let plan = CrashPlan::uniform(seed, 0.4);

        // The uninterrupted end state this seed must converge to: six
        // jobs, each submitted then done.
        let records: Vec<JournalRecord> = (0..6)
            .flat_map(|i| {
                let job = format!("job-{i}");
                [
                    JournalRecord::Submitted {
                        job: job.clone(),
                        vendor: "cirrus".to_string(),
                        deadline_ms: None,
                        pages: vec![(format!("u{i}"), format!("<html>{i}</html>"))],
                    },
                    JournalRecord::Done {
                        job,
                        result: Value::Obj(vec![("n".to_string(), Value::Num(i as f64))]),
                    },
                ]
            })
            .collect();

        let (mut journal, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty());
        for rec in &records {
            // At-least-once: a torn append is a simulated kill, so the
            // "restarted process" (a reopen) retries the record.
            loop {
                match journal.append_with(rec, Some(&plan)) {
                    Ok(()) => break,
                    Err(e) => {
                        assert!(
                            matches!(e, NassimError::CrashInjected { .. }),
                            "seed {seed}: unexpected append error {e}"
                        );
                        let (reopened, diags) = JobJournal::open(&dir).unwrap();
                        // The tear is surfaced, counted and truncated.
                        assert_eq!(reopened.torn_at_open(), 1, "seed {seed}");
                        assert_eq!(diags.len(), 1, "seed {seed}");
                        torn_total += 1;
                        journal = reopened;
                    }
                }
            }
        }

        // Converged: a fresh replay sees every job done with its exact
        // payload, no duplicates, no pending work.
        let (replayed, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty(), "seed {seed}: clean log reported {diags:?}");
        assert_eq!(replayed.job_count(), 6);
        assert!(replayed.pending_jobs().is_empty());
        for i in 0..6 {
            let state = replayed.job(&format!("job-{i}")).unwrap();
            assert_eq!(
                state.result,
                Some(Value::Obj(vec![("n".to_string(), Value::Num(i as f64))])),
                "seed {seed}: job-{i} payload diverged"
            );
            assert_eq!(state.page_count, 1);
        }
        let injected = plan.take_injections();
        assert!(
            injected.iter().all(|i| i.kind == CrashPoint::TornAppend),
            "journal ops must only tear appends: {injected:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(torn_total > 0, "rate-0.4 matrix never tore a single append");
}
