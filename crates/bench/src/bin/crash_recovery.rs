//! Crash-recovery bench: proves the durability layer end to end and
//! writes `BENCH_crash_recovery.json`. Three gated phases:
//!
//! 1. **Store crash matrix** — three seeds of the `NASSIM_CRASH` plan
//!    against atomic store saves: no injected truncation or skipped
//!    rename may ever change or corrupt the committed store (zero
//!    committed-artifact loss), and every crashed attempt's temp litter
//!    is swept by the next clean save;
//! 2. **Journal tear matrix** — seeded torn appends with
//!    reopen-and-retry: the log replays exactly its valid prefix and
//!    converges to the uninterrupted end state;
//! 3. **Kill–restart** — a real daemon (this binary re-execed with
//!    `--daemon`, so the `SIGKILL` hits a genuine process) is armed
//!    with an internal crash plan, killed mid-submit, and restarted
//!    clean over the same journal; its recovered `job-status` and
//!    idempotent resubmit must be byte-identical to an uninterrupted
//!    control daemon.
//!
//! Gates are structural (loss, parity, convergence, class coverage,
//! injections per phase; see [`nassim_bench::gates::crash_recovery`]) —
//! never wall-clock numbers, which are reported only.

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::html::IngestBudget;
use nassim::parser::parser_for;
use nassim::diag::NassimError;
use nassim::{assimilate_incremental, orphan_count, ArtifactStore, CrashPlan, CrashPoint};
use nassim_bench::gates::crash_recovery as gates;
use nassim_bench::report::Report;
use nassim_serve::{
    JobJournal, JournalRecord, Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState,
    StateOptions,
};
use serde::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: [u64; 3] = [3, 11, 42];
const STORE_RATE: f64 = 0.7;
const JOURNAL_RATE: f64 = 0.4;
/// The victim daemon's internal plan: high enough that most submits die
/// mid-persist, low enough that stage progress varies across seeds.
const VICTIM_RATE: f64 = 0.5;

#[derive(serde::Serialize)]
struct StoreSeed {
    seed: u64,
    attempts: usize,
    injections: usize,
    truncate_temp: usize,
    skip_rename: usize,
    committed_violations: usize,
    orphans_after_clean_save: usize,
}

#[derive(serde::Serialize)]
struct JournalSeed {
    seed: u64,
    records: usize,
    torn_appends: usize,
    converged: bool,
}

#[derive(serde::Serialize)]
struct KillSeed {
    seed: u64,
    /// Whether the victim's submit already failed typed (an injected
    /// persist crash) before the SIGKILL landed.
    submit_failed_before_kill: bool,
    jobs_recovered_at_restart: f64,
    status_parity: bool,
    resubmit_parity: bool,
    job_done_after_restart: bool,
    restart_wall_ms: f64,
}

#[derive(serde::Serialize)]
struct CrashBench {
    seeds: Vec<u64>,
    store_rate: f64,
    journal_rate: f64,
    victim_rate: f64,
    store: Vec<StoreSeed>,
    journal: Vec<JournalSeed>,
    kill_restart: Vec<KillSeed>,
    crash_classes_seen: usize,
    zero_committed_loss: bool,
    journal_converged: bool,
    byte_parity: bool,
    zero_job_loss: bool,
}

fn manual_pages(count: usize) -> Vec<(String, String)> {
    #[allow(clippy::expect_used)]
    let st = style::vendor("cirrus").expect("cirrus style");
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
    manual
        .pages
        .iter()
        .take(count)
        .map(|p| (p.url.clone(), p.html.clone()))
        .collect()
}

fn populated_store(pages: &[(String, String)]) -> Result<ArtifactStore, NassimError> {
    let refs: Vec<(&str, &str)> = pages.iter().map(|(u, h)| (u.as_str(), h.as_str())).collect();
    let mut store = ArtifactStore::new();
    let parser = parser_for("cirrus")?;
    assimilate_incremental(parser.as_ref(), refs, &IngestBudget::default(), &mut store)?;
    Ok(store)
}

fn temp_dir(tag: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = std::env::temp_dir().join(format!("nassim-bench-crash-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn store_phase(classes: &mut HashSet<CrashPoint>) -> Result<Vec<StoreSeed>, Box<dyn std::error::Error>> {
    let pages = manual_pages(4);
    let committed_store = populated_store(&pages[..2])?;
    let next_store = populated_store(&pages)?;
    let mut out = Vec::new();
    for seed in SEEDS {
        let dir = temp_dir("store", seed)?;
        let path = dir.join("artifacts.json");
        committed_store.save(&path)?;
        let committed = std::fs::read(&path)?;
        let plan = CrashPlan::uniform(seed, STORE_RATE);
        let mut attempts = 0usize;
        let mut violations = 0usize;
        loop {
            attempts += 1;
            if attempts > 200 {
                return Err(format!("seed {seed}: no save ever survived rate {STORE_RATE}").into());
            }
            match next_store.save_with(&path, Some(&plan)) {
                Ok(()) => break,
                Err(NassimError::CrashInjected { .. }) => {
                    if std::fs::read(&path)? != committed || ArtifactStore::load(&path).is_err() {
                        violations += 1;
                        eprintln!("  seed {seed}: committed store damaged by a crashed save");
                    }
                }
                Err(e) => return Err(format!("seed {seed}: unexpected save error {e}").into()),
            }
        }
        if ArtifactStore::load(&path).is_err() {
            violations += 1;
        }
        let injections = plan.take_injections();
        classes.extend(injections.iter().map(|i| i.kind));
        out.push(StoreSeed {
            seed,
            attempts,
            injections: injections.len(),
            truncate_temp: injections.iter().filter(|i| i.kind == CrashPoint::TruncateTemp).count(),
            skip_rename: injections.iter().filter(|i| i.kind == CrashPoint::SkipRename).count(),
            committed_violations: violations,
            orphans_after_clean_save: orphan_count(&path),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

fn journal_phase(classes: &mut HashSet<CrashPoint>) -> Result<Vec<JournalSeed>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let dir = temp_dir("journal", seed)?;
        let plan = CrashPlan::uniform(seed, JOURNAL_RATE);
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
        let (mut journal, _) = JobJournal::open(&dir)?;
        let mut torn = 0usize;
        for rec in &records {
            loop {
                match journal.append_with(rec, Some(&plan)) {
                    Ok(()) => break,
                    Err(NassimError::CrashInjected { .. }) => {
                        torn += 1;
                        let (reopened, _) = JobJournal::open(&dir)?;
                        journal = reopened;
                    }
                    Err(e) => return Err(format!("seed {seed}: append error {e}").into()),
                }
            }
        }
        let (replayed, diags) = JobJournal::open(&dir)?;
        let converged = diags.is_empty()
            && replayed.job_count() == 6
            && replayed.pending_jobs().is_empty()
            && (0..6).all(|i| {
                replayed.done_result(&format!("job-{i}"))
                    == Some(Value::Obj(vec![("n".to_string(), Value::Num(i as f64))]))
            });
        classes.extend(plan.take_injections().iter().map(|i| i.kind));
        out.push(JournalSeed {
            seed,
            records: records.len(),
            torn_appends: torn,
            converged,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

/// A daemon child of this binary, re-execed with `--daemon` so kills
/// land on a real process.
struct DaemonProc {
    child: Child,
    addr: SocketAddr,
    spawn_ms: f64,
}

fn spawn_daemon(journal: &Path, crash_env: Option<String>) -> Result<DaemonProc, Box<dyn std::error::Error>> {
    let t = Instant::now();
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--daemon")
        .arg(journal)
        .env_remove("NASSIM_CRASH")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(plan) = crash_env {
        cmd.env("NASSIM_CRASH", plan);
    }
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().ok_or("no stdout")?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let addr: SocketAddr = line
        .trim()
        .parse()
        .map_err(|e| format!("daemon printed {line:?}: {e}"))?;
    Ok(DaemonProc {
        child,
        addr,
        spawn_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

impl DaemonProc {
    fn client(&self) -> std::io::Result<ServeClient> {
        let mut c = ServeClient::connect(self.addr)?;
        c.set_read_timeout(Duration::from_secs(60))?;
        Ok(c)
    }

    fn shutdown(mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }

    fn sigkill(mut self) -> std::io::Result<()> {
        self.child.kill()?;
        let _ = self.child.wait();
        Ok(())
    }
}

fn ok_frame(raw: &[String], reply: &Reply) -> Option<String> {
    match reply {
        Reply::Ok(_) => raw.last().cloned(),
        _ => None,
    }
}

fn kill_phase() -> Result<Vec<KillSeed>, Box<dyn std::error::Error>> {
    let pages = manual_pages(3);
    let mut out = Vec::new();
    for seed in SEEDS {
        let job = format!("crash-bench.{seed}");
        let request = Request::SubmitManual {
            vendor: "cirrus".to_string(),
            pages: pages.clone(),
            deadline_ms: None,
            job: Some(job.clone()),
        };
        let status_req = Request::JobStatus { job: job.clone() };

        // Control: an uninterrupted, injection-free daemon.
        let control_dir = temp_dir("kill-control", seed)?;
        let control = spawn_daemon(&control_dir, None)?;
        let mut c = control.client()?;
        let (raw, reply) = c.request_full(&request)?;
        let control_ok = ok_frame(&raw, &reply).ok_or("control submit failed")?;
        let (raw, reply) = c.request_full(&status_req)?;
        let control_status = ok_frame(&raw, &reply).ok_or("control job-status failed")?;
        drop(c);
        control.shutdown();
        let _ = std::fs::remove_dir_all(&control_dir);

        // Victim: internal crash plan armed, then SIGKILLed. The submit
        // either dies typed at a persist kill point or survives — both
        // are valid starts; recovery must erase the difference.
        let victim_dir = temp_dir("kill-victim", seed)?;
        let victim = spawn_daemon(&victim_dir, Some(format!("{seed}:{VICTIM_RATE}")))?;
        let mut c = victim.client()?;
        let (_, reply) = c.request_full(&request)?;
        let submit_failed = !matches!(reply, Reply::Ok(_));
        drop(c);
        victim.sigkill()?;

        // Restart clean over the same journal; recovery runs before the
        // address prints.
        let restarted = spawn_daemon(&victim_dir, None)?;
        let restart_wall_ms = restarted.spawn_ms;
        let mut c = restarted.client()?;
        let (raw, reply) = c.request_full(&status_req)?;
        let recovered_status = ok_frame(&raw, &reply).unwrap_or_else(|| format!("{reply:?}"));
        let job_done = recovered_status.contains("\"done\"");
        let (raw, reply) = c.request_full(&request)?;
        let resubmit_ok = ok_frame(&raw, &reply).unwrap_or_else(|| format!("{reply:?}"));
        let resubmit_single_frame = raw.len() == 1;
        let jobs_recovered = match c.request(&Request::Health)? {
            Reply::Ok(v) => match v.get("jobs_recovered") {
                Some(Value::Num(n)) => *n,
                _ => -1.0,
            },
            _ => -1.0,
        };
        drop(c);
        restarted.shutdown();

        let status_parity = recovered_status == control_status;
        let resubmit_parity = resubmit_ok == control_ok && resubmit_single_frame;
        if !status_parity {
            eprintln!("  seed {seed}: job-status diverged\n    control:   {control_status}\n    recovered: {recovered_status}");
        }
        if !resubmit_parity {
            eprintln!("  seed {seed}: resubmit diverged\n    control:   {control_ok}\n    recovered: {resubmit_ok}");
        }
        out.push(KillSeed {
            seed,
            submit_failed_before_kill: submit_failed,
            jobs_recovered_at_restart: jobs_recovered,
            status_parity,
            resubmit_parity,
            job_done_after_restart: job_done,
            restart_wall_ms,
        });
        let _ = std::fs::remove_dir_all(&victim_dir);
    }
    Ok(out)
}

/// `--daemon <journal_dir>`: serve the cirrus catalog with a journal
/// until stdin closes. `NASSIM_CRASH` (if set) arms the process-global
/// injection plan inside this real, killable process.
fn daemon_main(journal_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let opts = StateOptions {
        vendors: vec!["cirrus".to_string()],
        store_path: None,
    };
    let (state, _) = ServeState::build(&opts)?;
    let daemon = ServeDaemon::spawn(
        Arc::new(state),
        ServeConfig {
            journal_dir: Some(journal_dir.to_path_buf()),
            ..ServeConfig::default()
        },
    )?;
    println!("{}", daemon.addr());
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--daemon") {
        let dir = args.get(2).ok_or("--daemon needs a journal dir")?;
        return daemon_main(Path::new(dir));
    }

    println!("Crash-recovery bench: store matrix, journal tears, kill-restart");
    let mut classes: HashSet<CrashPoint> = HashSet::new();

    println!("Store crash matrix: {} seeds x rate {STORE_RATE}", SEEDS.len());
    let store = store_phase(&mut classes)?;
    for s in &store {
        println!(
            "  seed {}: {} attempts, {} injections ({} truncate, {} skip-rename), {} violations",
            s.seed, s.attempts, s.injections, s.truncate_temp, s.skip_rename, s.committed_violations
        );
    }

    println!("Journal tear matrix: {} seeds x rate {JOURNAL_RATE}", SEEDS.len());
    let journal = journal_phase(&mut classes)?;
    for j in &journal {
        println!(
            "  seed {}: {} records, {} torn appends, converged: {}",
            j.seed, j.records, j.torn_appends, j.converged
        );
    }

    println!("Kill-restart: {} seeds, victim rate {VICTIM_RATE}, real SIGKILL", SEEDS.len());
    let kill_restart = kill_phase()?;
    for k in &kill_restart {
        println!(
            "  seed {}: submit {} before kill, {} recovered, status parity {}, resubmit parity {}, restart {:.0} ms",
            k.seed,
            if k.submit_failed_before_kill { "died typed" } else { "completed" },
            k.jobs_recovered_at_restart,
            k.status_parity,
            k.resubmit_parity,
            k.restart_wall_ms
        );
    }

    let mut report = Report::new("crash_recovery");
    let bench = CrashBench {
        seeds: SEEDS.to_vec(),
        store_rate: STORE_RATE,
        journal_rate: JOURNAL_RATE,
        victim_rate: VICTIM_RATE,
        crash_classes_seen: classes.len(),
        zero_committed_loss: store
            .iter()
            .all(|s| s.committed_violations == 0 && s.orphans_after_clean_save == 0),
        journal_converged: journal.iter().all(|j| j.converged),
        byte_parity: kill_restart.iter().all(|k| k.status_parity && k.resubmit_parity),
        zero_job_loss: kill_restart.iter().all(|k| k.job_done_after_restart),
        store,
        journal,
        kill_restart,
    };
    report.gate(&gates::ZERO_COMMITTED_LOSS, bench.zero_committed_loss);
    report.gate(&gates::JOURNAL_CONVERGED, bench.journal_converged);
    report.gate(&gates::BYTE_PARITY, bench.byte_parity);
    report.gate(&gates::ZERO_JOB_LOSS, bench.zero_job_loss);
    report.gate(&gates::CRASH_CLASSES, bench.crash_classes_seen);
    report.gate(&gates::STORE_SEEDS, bench.store.len());
    report.gate(&gates::JOURNAL_SEEDS, bench.journal.len());
    report.gate(&gates::KILL_SEEDS, bench.kill_restart.len());
    report.gate(
        &gates::STORE_INJECTIONS,
        bench.store.iter().map(|s| s.injections).sum::<usize>(),
    );
    report.gate(
        &gates::TORN_APPENDS,
        bench.journal.iter().map(|j| j.torn_appends).sum::<usize>(),
    );
    for s in &bench.store {
        report.gate_at(&gates::ORPHANS, format!("seed {}", s.seed), s.orphans_after_clean_save);
    }
    for k in &bench.kill_restart {
        report.gate_at(&gates::JOB_DONE, format!("seed {}", k.seed), k.job_done_after_restart);
    }
    report.finish(&bench)
}
