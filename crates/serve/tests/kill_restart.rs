//! Kill–restart recovery: a real `nassim-serve` process is `SIGKILL`ed
//! mid-submit and restarted over the same journal directory. The oracle
//! is byte parity — after recovery, `job-status` and an idempotent
//! resubmit must answer byte-identically to an uninterrupted control
//! daemon serving the same catalog.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_datasets::catalog::Catalog;
use nassim_datasets::{manualgen, style};
use nassim_serve::{
    ErrKind, Reply, Request, ServeClient, ServeConfig, ServeDaemon, ServeState, StateOptions,
};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const JOB: &str = "kill-restart.job-1";

fn submit_pages() -> Vec<(String, String)> {
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
    manual
        .pages
        .iter()
        .take(3)
        .map(|p| (p.url.clone(), p.html.clone()))
        .collect()
}

fn submit_request(pages: &[(String, String)]) -> Request {
    Request::SubmitManual {
        vendor: "cirrus".to_string(),
        pages: pages.to_vec(),
        deadline_ms: None,
        job: Some(JOB.to_string()),
    }
}

/// A `nassim-serve` child process bound to a journal directory. Holding
/// stdin open keeps it serving; dropping stdin drains it.
struct DaemonProc {
    child: Child,
    addr: SocketAddr,
}

fn spawn_daemon(journal: &Path) -> DaemonProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nassim-serve"))
        .env("NASSIM_SERVE_JOURNAL", journal)
        .env("NASSIM_SERVE_VENDORS", "cirrus")
        .env_remove("NASSIM_CRASH")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // The daemon prints its address only after spawn-time recovery has
    // finished every pending journaled job.
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr: SocketAddr = line.trim().parse().unwrap_or_else(|e| {
        panic!("daemon printed {line:?} instead of an address: {e}");
    });
    DaemonProc { child, addr }
}

impl DaemonProc {
    fn client(&self) -> ServeClient {
        let mut c = ServeClient::connect(self.addr).unwrap();
        c.set_read_timeout(Duration::from_secs(30)).unwrap();
        c
    }

    fn shutdown(mut self) {
        // Closing stdin asks for a graceful drain-and-exit.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }

    fn sigkill(mut self) {
        self.child.kill().unwrap();
        let _ = self.child.wait();
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nassim-kill-restart-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ok_frame(raw: &[String], reply: &Reply) -> String {
    match reply {
        Reply::Ok(_) => raw.last().unwrap().clone(),
        other => panic!("expected ok reply, got {other:?} (frames: {raw:?})"),
    }
}

#[test]
fn sigkilled_daemon_resumes_the_job_byte_identically() {
    let pages = submit_pages();
    let request = submit_request(&pages);

    // Control: an uninterrupted daemon completing the same job.
    let control_dir = temp_journal("control");
    let control = spawn_daemon(&control_dir);
    let mut client = control.client();
    let (raw, reply) = client.request_full(&request).unwrap();
    let control_ok = ok_frame(&raw, &reply);
    let (raw, reply) = client
        .request_full(&Request::JobStatus { job: JOB.to_string() })
        .unwrap();
    let control_status = ok_frame(&raw, &reply);
    assert!(control_status.contains("\"done\""), "{control_status}");
    drop(client);
    control.shutdown();

    // Victim: SIGKILL the daemon mid-submit. The intent record is
    // durable before the first progress frame is sent, so once a frame
    // has been read the job is guaranteed journaled; whether any stages
    // (or even the reply) landed before the kill is timing — recovery
    // must answer identically in every case.
    let victim_dir = temp_journal("victim");
    let victim = spawn_daemon(&victim_dir);
    let mut client = victim.client();
    client.send_line(&request.to_line()).unwrap();
    let first = client.read_raw().unwrap();
    assert!(first.contains("progress"), "unexpected first frame {first}");
    victim.sigkill();
    drop(client);

    // Restart over the same journal: spawn-time recovery finishes the
    // job before the address is printed.
    let restarted = spawn_daemon(&victim_dir);
    let mut client = restarted.client();
    let (raw, reply) = client
        .request_full(&Request::JobStatus { job: JOB.to_string() })
        .unwrap();
    let recovered_status = ok_frame(&raw, &reply);
    assert_eq!(
        recovered_status, control_status,
        "recovered job-status lost byte parity with the uninterrupted control"
    );

    // Idempotent resubmit: the recorded reply replays byte-identically,
    // with no progress frames (nothing is re-run).
    let (raw, reply) = client.request_full(&request).unwrap();
    assert_eq!(raw.len(), 1, "replayed reply must be a single frame: {raw:?}");
    assert_eq!(ok_frame(&raw, &reply), control_ok);

    // The recovery is accounted in health.
    let reply = client.request(&Request::Health).unwrap();
    match reply {
        Reply::Ok(v) => {
            let n = match v.get("jobs_recovered") {
                Some(serde::Value::Num(n)) => *n,
                other => panic!("health missing jobs_recovered: {other:?}"),
            };
            assert!(n >= 1.0, "restart recovered no jobs");
        }
        other => panic!("health failed: {other:?}"),
    }
    drop(client);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&control_dir);
    let _ = std::fs::remove_dir_all(&victim_dir);
}

#[test]
fn journaled_submissions_are_idempotent_in_process() {
    let dir = temp_journal("in-process");
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    let daemon = ServeDaemon::spawn(
        Arc::new(state),
        ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let pages = submit_pages();
    let request = submit_request(&pages);

    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let (first_raw, first_reply) = client.request_full(&request).unwrap();
    let first_ok = ok_frame(&first_raw, &first_reply);
    assert!(first_raw.len() > 1, "first run must stream progress frames");

    // Replay: one frame, byte-identical payload, nothing recomputed.
    let (second_raw, second_reply) = client.request_full(&request).unwrap();
    assert_eq!(second_raw.len(), 1);
    assert_eq!(ok_frame(&second_raw, &second_reply), first_ok);

    // Same id with different content is a typed client error.
    let mut altered = pages.clone();
    altered.truncate(1);
    match client.request(&submit_request(&altered)).unwrap() {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::Malformed),
        other => panic!("conflicting resubmit answered {other:?}"),
    }

    // job-status carries the same recorded result.
    let (raw, reply) = client
        .request_full(&Request::JobStatus { job: JOB.to_string() })
        .unwrap();
    let status = ok_frame(&raw, &reply);
    assert!(status.contains("\"done\""), "{status}");

    // A daemon without a journal refuses journaled ops, typed.
    let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
    let plain = ServeDaemon::spawn(Arc::new(state), ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(plain.addr()).unwrap();
    match client.request(&request).unwrap() {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::UnknownOp),
        other => panic!("journal-less daemon answered {other:?}"),
    }
    match client
        .request(&Request::JobStatus { job: JOB.to_string() })
        .unwrap()
    {
        Reply::Err(e) => assert_eq!(e.kind, ErrKind::UnknownOp),
        other => panic!("journal-less job-status answered {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn done_jobs_stay_bound_to_their_content_across_restart() {
    let dir = temp_journal("content-binding");
    let pages = submit_pages();
    let request = submit_request(&pages);
    // Same id, same vendor and page count, one page edited: only the
    // content fingerprint tells it apart once the pages are dropped.
    let mut edited = pages.clone();
    edited[1].1.push_str("<p>edited</p>");
    let other_vendor = Request::SubmitManual {
        vendor: "helix".to_string(),
        pages: pages.clone(),
        deadline_ms: None,
        job: Some(JOB.to_string()),
    };
    let status_request = Request::JobStatus {
        job: JOB.to_string(),
    };

    let spawn = || {
        let (state, _) = ServeState::build(&StateOptions::default()).unwrap();
        ServeDaemon::spawn(
            Arc::new(state),
            ServeConfig {
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap()
    };
    let check = |client: &mut ServeClient, done_ok: &str, status: &str| {
        let (raw, reply) = client.request_full(&request).unwrap();
        assert_eq!(raw.len(), 1, "replay must not re-run: {raw:?}");
        assert_eq!(ok_frame(&raw, &reply), done_ok);
        for conflicting in [submit_request(&edited), other_vendor.clone()] {
            match client.request(&conflicting).unwrap() {
                Reply::Err(e) => assert_eq!(e.kind, ErrKind::Malformed),
                other => panic!("conflicting resubmit answered {other:?}"),
            }
        }
        let (raw, reply) = client.request_full(&status_request).unwrap();
        assert_eq!(ok_frame(&raw, &reply), status);
    };

    let mut daemon = spawn();
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let (raw, reply) = client.request_full(&request).unwrap();
    let done_ok = ok_frame(&raw, &reply);
    let (raw, reply) = client.request_full(&status_request).unwrap();
    let status = ok_frame(&raw, &reply);
    // `job-status` still counts the pages the done job no longer holds.
    assert!(
        status.contains(&format!("\"pages\":{}", pages.len())),
        "{status}"
    );
    check(&mut client, &done_ok, &status);
    drop(client);
    daemon.stop();

    // Replayed from the journal alone: the same answers, byte for byte.
    let mut daemon = spawn();
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    check(&mut client, &done_ok, &status);
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
