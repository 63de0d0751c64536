//! The write-ahead job journal: durable `submit-manual` jobs that
//! survive a `SIGKILL` and resume byte-identically after restart.
//!
//! A journaled submission (`submit-manual` with a `job` id) writes its
//! intent — vendor, deadline and the full page payload — to an
//! append-only log *before* any pipeline work, then records each
//! completed §4–§5 stage (keyed by the corpus content hash,
//! [`nassim::corpus_key`]) after atomically persisting the job's
//! [`nassim::ArtifactStore`], and finally records the reply payload
//! itself. Each record is one JSON line framed as
//! `{"sum":"<fnv1a hex>","rec":{…}}` and fsynced through
//! [`nassim::append_record`], so the log on disk is always a valid
//! prefix plus at most one torn tail.
//!
//! Recovery invariants (what a restarted daemon can rely on):
//!
//! 1. **Prefix validity** — replay applies records in order and stops at
//!    the first line whose checksum or JSON does not verify; the tear is
//!    truncated away (classic WAL redo semantics), surfaced as a
//!    [`NassimError::JournalTorn`]-derived diagnostic, never trusted.
//! 2. **At-least-once completion** — a job with a `submitted` record
//!    but no `done` record is *pending*: the daemon re-runs it at spawn.
//!    Completed stages are pure cache hits against the job's persisted
//!    artifact store, so recovery resumes from the last durable stage
//!    rather than recomputing the manual.
//! 3. **Byte-identical replies** — the pipeline is deterministic in
//!    (vendor, pages) and cached artifacts are content-addressed, so
//!    the recovered reply payload — and every `job-status` line — is
//!    byte-for-byte the payload an uninterrupted run would have sent.
//! 4. **Idempotence** — re-submitting a done job replays the recorded
//!    payload without re-running anything; re-submitting a pending job
//!    resumes it; stage records are never duplicated.
//!
//! The in-memory index holds a job's pages only while it is pending,
//! because recovery needs them. A `done` record, live or replayed,
//! drops them and keeps the page count plus a 64-bit content
//! fingerprint ([`pages_fingerprint`]), so the index's memory is bounded
//! by the pending jobs' manuals plus a few fields per done job. The
//! fingerprint is what still binds a done job id to its content: a
//! resubmission with the same id but other pages is refused rather than
//! answered with another manual's payload.
//!
//! Appends honour the process-wide `NASSIM_CRASH` plan
//! ([`nassim::CrashPlan`]): an injected torn append leaves a real torn
//! tail on disk and poisons the journal (every later append fails
//! typed) — the simulated kill, observable end to end by restarting.

use crate::protocol::valid_job_id;
use nassim::corpus::{fnv1a_str, Fnv1a};
use nassim::{append_record, global_crash_plan, CrashPlan, MAX_STORE_BYTES};
use nassim_diag::{Diagnostic, NassimError, Stage};
use crate::lock;
use std::sync::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// File name of the append-only log inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// One journal record. The `job` id is validated at the protocol layer
/// ([`valid_job_id`]), so it is always safe inside a file name.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Intent: the full request payload, written before any work.
    Submitted {
        job: String,
        vendor: String,
        deadline_ms: Option<u64>,
        pages: Vec<(String, String)>,
    },
    /// A stage completed and its artifacts are durably in the job's
    /// store. `key` is the corpus content hash the stage ran under.
    Stage {
        job: String,
        stage: String,
        key: String,
    },
    /// The final reply payload (the `ok` body of the submit).
    Done { job: String, result: Value },
}

impl JournalRecord {
    pub fn job(&self) -> &str {
        match self {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::Stage { job, .. }
            | JournalRecord::Done { job, .. } => job,
        }
    }

    fn type_str(&self) -> &'static str {
        match self {
            JournalRecord::Submitted { .. } => "submitted",
            JournalRecord::Stage { .. } => "stage",
            JournalRecord::Done { .. } => "done",
        }
    }

    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("type".to_string(), Value::Str(self.type_str().to_string())),
            ("job".to_string(), Value::Str(self.job().to_string())),
        ];
        match self {
            JournalRecord::Submitted {
                vendor,
                deadline_ms,
                pages,
                ..
            } => {
                fields.push(("vendor".to_string(), Value::Str(vendor.clone())));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), Value::Num(*ms as f64)));
                }
                fields.push((
                    "pages".to_string(),
                    Value::Arr(
                        pages
                            .iter()
                            .map(|(url, html)| {
                                Value::Arr(vec![
                                    Value::Str(url.clone()),
                                    Value::Str(html.clone()),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            JournalRecord::Stage { stage, key, .. } => {
                fields.push(("stage".to_string(), Value::Str(stage.clone())));
                fields.push(("key".to_string(), Value::Str(key.clone())));
            }
            JournalRecord::Done { result, .. } => {
                fields.push(("result".to_string(), result.clone()));
            }
        }
        Value::Obj(fields)
    }

    fn from_value(value: &Value) -> Result<JournalRecord, String> {
        let str_field = |name: &str| -> Result<String, String> {
            match value.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("missing string `{name}` field")),
            }
        };
        let job = str_field("job")?;
        if !valid_job_id(&job) {
            return Err(format!("invalid job id `{job}`"));
        }
        match str_field("type")?.as_str() {
            "submitted" => {
                let deadline_ms = match value.get("deadline_ms") {
                    None => None,
                    Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                    Some(_) => return Err("`deadline_ms` must be a non-negative integer".into()),
                };
                let Some(Value::Arr(raw)) = value.get("pages") else {
                    return Err("missing `pages` array".to_string());
                };
                let mut pages = Vec::with_capacity(raw.len());
                for p in raw {
                    match p {
                        Value::Arr(pair) => match pair.as_slice() {
                            [Value::Str(url), Value::Str(html)] => {
                                pages.push((url.clone(), html.clone()));
                            }
                            _ => return Err("`pages` entries must be [url, html] pairs".into()),
                        },
                        _ => return Err("`pages` entries must be arrays".to_string()),
                    }
                }
                Ok(JournalRecord::Submitted {
                    job,
                    vendor: str_field("vendor")?,
                    deadline_ms,
                    pages,
                })
            }
            "stage" => Ok(JournalRecord::Stage {
                job,
                stage: str_field("stage")?,
                key: str_field("key")?,
            }),
            "done" => match value.get("result") {
                Some(result) => Ok(JournalRecord::Done {
                    job,
                    result: result.clone(),
                }),
                None => Err("missing `result` field".to_string()),
            },
            other => Err(format!("unknown record type `{other}`")),
        }
    }

    /// Serialize as one checksummed log line (no trailing newline):
    /// `{"sum":"<fnv1a of rec's bytes>","rec":{…}}`. The vendored
    /// serializer is deterministic, so the checksum is reproducible at
    /// replay.
    ///
    /// The record is rendered once: the checksummed text is the text
    /// framed into the line (the checksum is plain hex, so the frame
    /// needs no escaping).
    pub fn to_line(&self) -> String {
        #[allow(clippy::unwrap_used)] // Value serialization is infallible.
        let rec_text = serde_json::to_string(&self.to_value()).unwrap();
        let sum = fnv1a_str(&rec_text);
        format!("{{\"sum\":\"{sum:016x}\",\"rec\":{rec_text}}}")
    }

    /// Parse and verify one log line. Any failure — bad JSON, missing
    /// framing, checksum mismatch, undecodable record — is a tear: the
    /// line and everything after it must be discarded.
    pub fn parse_line(line: &str) -> Result<JournalRecord, String> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let Some(Value::Str(sum)) = value.get("sum") else {
            return Err("missing `sum` field".to_string());
        };
        let Some(rec) = value.get("rec") else {
            return Err("missing `rec` field".to_string());
        };
        #[allow(clippy::unwrap_used)] // Value serialization is infallible.
        let rec_text = serde_json::to_string(rec).unwrap();
        let actual = format!("{:016x}", fnv1a_str(&rec_text));
        if *sum != actual {
            return Err(format!("checksum mismatch (stored {sum}, actual {actual})"));
        }
        JournalRecord::from_value(rec)
    }
}

/// Everything the journal knows about one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobState {
    pub vendor: String,
    pub deadline_ms: Option<u64>,
    /// The submitted pages while the job is pending (recovery re-runs
    /// them); empty once the job is done.
    pub pages: Vec<(String, String)>,
    /// Number of submitted pages, kept after the pages are dropped.
    pub page_count: usize,
    /// [`pages_fingerprint`] of the submitted pages.
    pub fingerprint: u64,
    /// Durably completed stages, in completion order: `(stage, key)`.
    pub stages: Vec<(String, String)>,
    /// The recorded reply payload; `Some` exactly when the job is done.
    pub result: Option<Value>,
}

impl JobState {
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Whether `stage` is already durably recorded.
    pub fn has_stage(&self, stage: &str) -> bool {
        self.stages.iter().any(|(s, _)| s == stage)
    }

    /// Whether a submission of (`vendor`, `pages`) is this job's content.
    /// Compares the vendor and page count first, and hashes `pages` only
    /// when both match.
    pub fn same_content(&self, vendor: &str, pages: &[(String, String)]) -> bool {
        self.vendor == vendor
            && self.page_count == pages.len()
            && self.fingerprint == pages_fingerprint(pages)
    }
}

/// Content fingerprint of a job's pages: length-prefixed FNV-1a over
/// every (url, html) pair, the same 64-bit content addressing
/// [`nassim::parser::page_key`] gives each page in the artifact store.
pub fn pages_fingerprint(pages: &[(String, String)]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(pages.len());
    for (url, html) in pages {
        h.write_field(url).write_field(html);
    }
    h.finish()
}

/// The write-ahead job journal: an fsynced append-only log plus the
/// in-memory job index replayed from it.
pub struct JobJournal {
    dir: PathBuf,
    log_path: PathBuf,
    file: Mutex<File>,
    jobs: Mutex<BTreeMap<String, JobState>>,
    /// Torn records discarded (and truncated away) at open.
    torn_at_open: AtomicU64,
    /// Set after an injected torn append: the on-disk tail is torn, so
    /// further appends would land unreachable bytes after the tear.
    /// Every later append fails typed until the journal is reopened
    /// (which truncates the tear) — the injected crash is supposed to
    /// be followed by a restart, and this keeps a process that outlives
    /// it honest instead of silently losing records.
    poisoned: AtomicBool,
}

impl JobJournal {
    /// Open (or create) the journal in `dir`, replaying the log into the
    /// job index. Returns the journal plus one [`Stage::Internal`]
    /// diagnostic per abnormality absorbed — a torn tail (detected by
    /// checksum, truncated away) or an oversized log. Fails only when
    /// the directory or log file cannot be created or read at all.
    pub fn open(dir: &Path) -> Result<(JobJournal, Vec<Diagnostic>), NassimError> {
        let io_err = |context: String, e: &std::io::Error| NassimError::Io {
            context,
            reason: e.to_string(),
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| io_err(format!("creating journal dir `{}`", dir.display()), &e))?;
        let log_path = dir.join(JOURNAL_FILE);
        let mut diagnostics = Vec::new();
        let mut jobs: BTreeMap<String, JobState> = BTreeMap::new();
        let mut torn = 0u64;
        if log_path.exists() {
            let meta = std::fs::metadata(&log_path)
                .map_err(|e| io_err(format!("reading journal `{}`", log_path.display()), &e))?;
            if meta.len() > MAX_STORE_BYTES {
                return Err(NassimError::ArtifactCorrupt {
                    path: log_path.display().to_string(),
                    reason: format!(
                        "journal is {} bytes, over the {MAX_STORE_BYTES}-byte load cap",
                        meta.len()
                    ),
                });
            }
            let bytes = std::fs::read(&log_path)
                .map_err(|e| io_err(format!("reading journal `{}`", log_path.display()), &e))?;
            let mut offset = 0usize;
            let mut valid_end = 0usize;
            while offset < bytes.len() {
                let rest = &bytes[offset..];
                let (line_bytes, framed) = match rest.iter().position(|&b| b == b'\n') {
                    Some(nl) => (&rest[..nl], true),
                    // No terminator: a record died mid-append.
                    None => (rest, false),
                };
                let parsed = if !framed {
                    Err("record has no `\\n` terminator (torn append)".to_string())
                } else {
                    match std::str::from_utf8(line_bytes) {
                        Ok("") => {
                            offset += 1;
                            valid_end = offset;
                            continue;
                        }
                        Ok(line) => JournalRecord::parse_line(line),
                        Err(e) => Err(format!("record is not UTF-8: {e}")),
                    }
                };
                match parsed {
                    Ok(rec) => {
                        apply_record(&mut jobs, rec);
                        offset += line_bytes.len() + 1;
                        valid_end = offset;
                    }
                    Err(reason) => {
                        // Prefix-validity invariant: the tear and
                        // everything after it are discarded.
                        torn += 1;
                        let err = NassimError::JournalTorn {
                            path: log_path.display().to_string(),
                            offset,
                            reason,
                        };
                        diagnostics.push(Diagnostic::warning(
                            Stage::Internal,
                            format!("{err}; truncating {} trailing bytes", bytes.len() - offset),
                        ));
                        break;
                    }
                }
            }
            if valid_end < bytes.len() {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&log_path)
                    .map_err(|e| {
                        io_err(format!("truncating journal `{}`", log_path.display()), &e)
                    })?;
                f.set_len(valid_end as u64).map_err(|e| {
                    io_err(format!("truncating journal `{}`", log_path.display()), &e)
                })?;
                f.sync_all().map_err(|e| {
                    io_err(format!("fsyncing journal `{}`", log_path.display()), &e)
                })?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| io_err(format!("opening journal `{}`", log_path.display()), &e))?;
        Ok((
            JobJournal {
                dir: dir.to_path_buf(),
                log_path,
                file: Mutex::new(file),
                jobs: Mutex::new(jobs),
                torn_at_open: AtomicU64::new(torn),
                poisoned: AtomicBool::new(false),
            },
            diagnostics,
        ))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Torn records discarded while opening.
    pub fn torn_at_open(&self) -> u64 {
        self.torn_at_open.load(Ordering::Relaxed)
    }

    /// Where this job's artifact store persists between stages. Job ids
    /// are [`valid_job_id`]-restricted, so the name cannot traverse.
    pub fn job_store_path(&self, job: &str) -> PathBuf {
        self.dir.join(format!("job-{job}.store.json"))
    }

    /// Best-effort removal of a completed job's store file (its reply is
    /// in the `done` record; the artifacts are no longer needed).
    pub fn remove_job_store(&self, job: &str) {
        let _ = std::fs::remove_file(self.job_store_path(job));
    }

    /// Durably append one record (fsynced before return) and apply it to
    /// the index. Under an injected crash the record is torn on disk,
    /// **not** applied, and the journal is poisoned (see the field doc).
    pub fn append(&self, rec: &JournalRecord) -> Result<(), NassimError> {
        self.append_with(rec, global_crash_plan())
    }

    /// [`JobJournal::append`] with an explicit crash plan (tests inject
    /// a local plan; production goes through the process-global one).
    pub fn append_with(
        &self,
        rec: &JournalRecord,
        plan: Option<&CrashPlan>,
    ) -> Result<(), NassimError> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(NassimError::Internal {
                context: format!(
                    "journal `{}` is poisoned by an injected torn append; restart to recover",
                    self.log_path.display()
                ),
            });
        }
        let mut line = rec.to_line();
        line.push('\n');
        let mut file = lock(&self.file);
        match append_record(&mut file, &self.log_path, line.as_bytes(), plan) {
            Ok(()) => {
                apply_record(&mut lock(&self.jobs), rec.clone());
                Ok(())
            }
            Err(e) => {
                if matches!(e, NassimError::CrashInjected { .. }) {
                    self.poisoned.store(true, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Current state of one job. Clones a pending job's pages; the
    /// accessors below read single fields without that copy.
    pub fn job(&self, id: &str) -> Option<JobState> {
        lock(&self.jobs).get(id).cloned()
    }

    /// Run `f` on one job's state under the index lock, without cloning
    /// it.
    pub fn with_job<R>(&self, id: &str, f: impl FnOnce(&JobState) -> R) -> Option<R> {
        lock(&self.jobs).get(id).map(f)
    }

    /// Whether `stage` of job `id` is already durably recorded.
    pub fn has_stage(&self, id: &str, stage: &str) -> bool {
        self.with_job(id, |s| s.has_stage(stage)).unwrap_or(false)
    }

    /// The recorded reply payload of a done job.
    pub fn done_result(&self, id: &str) -> Option<Value> {
        lock(&self.jobs).get(id).and_then(|s| s.result.clone())
    }

    /// Jobs with a `submitted` record but no `done` record — the work a
    /// restarted daemon must finish (in deterministic id order).
    pub fn pending_jobs(&self) -> Vec<(String, JobState)> {
        lock(&self.jobs)
            .iter()
            .filter(|(_, s)| !s.is_done())
            .map(|(id, s)| (id.clone(), s.clone()))
            .collect()
    }

    /// Number of pending jobs, counted without cloning them.
    pub fn pending_count(&self) -> usize {
        lock(&self.jobs).values().filter(|s| !s.is_done()).count()
    }

    /// Total jobs the journal knows about.
    pub fn job_count(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// Append raw bytes without framing or fsync — test-only hook for
    /// fabricating torn tails without a kill.
    #[doc(hidden)]
    pub fn debug_append_raw(&self, bytes: &[u8]) -> std::io::Result<()> {
        lock(&self.file).write_all(bytes)
    }
}

/// Apply one replayed or freshly appended record to the job index.
/// Replay-safe: re-applying a record a prior life already applied (the
/// live handler skips recorded stages, but a resumed submit re-submits)
/// never duplicates state.
fn apply_record(jobs: &mut BTreeMap<String, JobState>, rec: JournalRecord) {
    match rec {
        JournalRecord::Submitted {
            job,
            vendor,
            deadline_ms,
            pages,
        } => {
            // Field writes rather than wholesale insert: a duplicate
            // `submitted` (a pending job re-submitted after a crash)
            // must not erase recorded stages, and one replayed after
            // `done` must not bring the dropped pages back.
            let state = jobs.entry(job).or_default();
            state.vendor = vendor;
            state.deadline_ms = deadline_ms;
            if state.pages.is_empty() && !state.is_done() {
                state.page_count = pages.len();
                state.fingerprint = pages_fingerprint(&pages);
                state.pages = pages;
            }
        }
        JournalRecord::Stage { job, stage, key } => {
            let state = jobs.entry(job).or_default();
            if !state.has_stage(&stage) {
                state.stages.push((stage, key));
            }
        }
        JournalRecord::Done { job, result } => {
            // Done jobs answer from `result`; their pages are only
            // needed by recovery, which is over for this job.
            let state = jobs.entry(job).or_default();
            state.result = Some(result);
            state.pages = Vec::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_diag::NassimError;

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nassim-journal-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                job: "j1".to_string(),
                vendor: "cirrus".to_string(),
                deadline_ms: Some(750),
                pages: vec![("u1".to_string(), "<html>a</html>".to_string())],
            },
            JournalRecord::Stage {
                job: "j1".to_string(),
                stage: "parse".to_string(),
                key: "00000000deadbeef".to_string(),
            },
            JournalRecord::Done {
                job: "j1".to_string(),
                result: Value::Obj(vec![("nodes".to_string(), Value::Num(7.0))]),
            },
        ]
    }

    #[test]
    fn records_round_trip_and_tampering_is_a_tear() {
        for rec in sample_records() {
            let line = rec.to_line();
            let back = JournalRecord::parse_line(&line).unwrap();
            assert_eq!(back, rec);
            // Any byte flip inside the record body breaks the checksum.
            let tampered = line.replace("j1", "j2");
            let err = JournalRecord::parse_line(&tampered).unwrap_err();
            assert!(err.contains("checksum mismatch"), "{err}");
        }
        // Framing failures are tears too, not panics.
        for bad in ["", "{", "{\"rec\":{}}", "{\"sum\":\"0\",\"rec\":{\"type\":\"nope\"}}"] {
            assert!(JournalRecord::parse_line(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn reopen_replays_the_log_into_the_same_index() {
        let dir = temp_journal("replay");
        {
            let (journal, diags) = JobJournal::open(&dir).unwrap();
            assert!(diags.is_empty());
            for rec in sample_records() {
                journal.append(&rec).unwrap();
            }
            journal
                .append(&JournalRecord::Submitted {
                    job: "j2".to_string(),
                    vendor: "helix".to_string(),
                    deadline_ms: None,
                    pages: vec![("u2".to_string(), "<html>b</html>".to_string())],
                })
                .unwrap();
        }
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty());
        assert_eq!(journal.torn_at_open(), 0);
        assert_eq!(journal.job_count(), 2);
        let j1 = journal.job("j1").unwrap();
        assert!(j1.is_done());
        assert!(j1.has_stage("parse"));
        assert_eq!(
            journal.done_result("j1"),
            Some(Value::Obj(vec![("nodes".to_string(), Value::Num(7.0))]))
        );
        // j2 never got its `done` record: it is the pending work.
        let pending = journal.pending_jobs();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, "j2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let dir = temp_journal("torn");
        let log_path = dir.join(JOURNAL_FILE);
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            for rec in sample_records() {
                journal.append(&rec).unwrap();
            }
            // A record that died mid-append: valid prefix of a real line,
            // no terminator.
            let torn = JournalRecord::Stage {
                job: "j9".to_string(),
                stage: "syntax".to_string(),
                key: "0".repeat(16),
            }
            .to_line();
            journal
                .debug_append_raw(&torn.as_bytes()[..torn.len() - 5])
                .unwrap();
        }
        let torn_len = std::fs::metadata(&log_path).unwrap().len();

        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert_eq!(journal.torn_at_open(), 1);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("torn"), "{}", diags[0].message);
        // The tear is physically gone and the prefix fully replayed.
        assert!(std::fs::metadata(&log_path).unwrap().len() < torn_len);
        assert!(journal.job("j1").unwrap().is_done());
        assert!(journal.job("j9").is_none(), "torn record must not apply");
        // The truncated journal accepts appends again, cleanly.
        journal
            .append(&JournalRecord::Stage {
                job: "j1".to_string(),
                stage: "extra".to_string(),
                key: "f".repeat(16),
            })
            .unwrap();
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty());
        assert!(journal.job("j1").unwrap().has_stage("extra"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_append_poisons_until_reopen() {
        let dir = temp_journal("poison");
        let (journal, _) = JobJournal::open(&dir).unwrap();
        let recs = sample_records();
        journal.append(&recs[0]).unwrap();

        // Rate-1.0 plan: the very next append tears mid-record.
        let plan = CrashPlan::uniform(11, 1.0);
        let err = journal.append_with(&recs[1], Some(&plan)).unwrap_err();
        assert!(
            matches!(err, NassimError::CrashInjected { .. }),
            "expected injected crash, got {err}"
        );
        assert_eq!(plan.injection_count(), 1);
        // The torn record was not applied, and the journal refuses
        // further appends until a restart truncates the tear.
        assert!(!journal.job("j1").unwrap().has_stage("parse"));
        let err = journal.append(&recs[2]).unwrap_err();
        assert!(matches!(err, NassimError::Internal { .. }), "{err}");

        // The restart: the tear is truncated, the intent record intact,
        // and the journal is writable again.
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert_eq!(journal.torn_at_open(), 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(journal.pending_jobs().len(), 1);
        journal.append(&recs[1]).unwrap();
        journal.append(&recs[2]).unwrap();
        assert!(journal.job("j1").unwrap().is_done());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn submitted(job: &str, html: &str) -> JournalRecord {
        JournalRecord::Submitted {
            job: job.to_string(),
            vendor: "cirrus".to_string(),
            deadline_ms: None,
            pages: vec![
                ("u1".to_string(), html.to_string()),
                ("u2".to_string(), "<html>second</html>".to_string()),
            ],
        }
    }

    fn pages_of(rec: &JournalRecord) -> Vec<(String, String)> {
        match rec {
            JournalRecord::Submitted { pages, .. } => pages.clone(),
            _ => unreachable!("not a submitted record"),
        }
    }

    /// The index facts the dropped-pages design promises, checked on a
    /// live journal and again on its replay.
    fn assert_done_and_pending(
        journal: &JobJournal,
        done: &JournalRecord,
        pending: &JournalRecord,
    ) {
        let d = journal.job("done-1").unwrap();
        assert!(d.is_done());
        assert!(d.pages.is_empty(), "a done job must not hold its pages");
        assert_eq!(d.page_count, 2);
        assert_eq!(d.fingerprint, pages_fingerprint(&pages_of(done)));

        let p = journal.job("pending-1").unwrap();
        assert!(!p.is_done());
        assert_eq!(
            p.pages,
            pages_of(pending),
            "recovery needs a pending job's pages"
        );
        assert_eq!(p.page_count, 2);
        assert_eq!(journal.pending_count(), 1);
        assert_eq!(journal.pending_jobs()[0].1.pages, pages_of(pending));

        // Identical content is recognised; other pages, another vendor
        // or another page count are not.
        for (id, rec) in [("done-1", done), ("pending-1", pending)] {
            let pages = pages_of(rec);
            let same = |vendor: &str, pages: &[(String, String)]| {
                journal
                    .with_job(id, |s| s.same_content(vendor, pages))
                    .unwrap()
            };
            assert!(same("cirrus", &pages), "{id}");
            let mut edited = pages.clone();
            edited[0].1.push(' ');
            assert!(!same("cirrus", &edited), "{id}");
            assert!(!same("helix", &pages), "{id}");
            assert!(!same("cirrus", &pages[..1]), "{id}");
        }
        assert!(journal.has_stage("done-1", "parse"));
        assert!(!journal.has_stage("done-1", "build"));
        assert!(!journal.has_stage("missing", "parse"));
    }

    #[test]
    fn done_jobs_drop_their_pages_live_and_at_replay() {
        let dir = temp_journal("dropped-pages");
        let done = submitted("done-1", "<html>a</html>");
        let pending = submitted("pending-1", "<html>b</html>");
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            journal.append(&done).unwrap();
            journal.append(&pending).unwrap();
            journal
                .append(&JournalRecord::Stage {
                    job: "done-1".to_string(),
                    stage: "parse".to_string(),
                    key: "0".repeat(16),
                })
                .unwrap();
            journal
                .append(&JournalRecord::Done {
                    job: "done-1".to_string(),
                    result: Value::Num(1.0),
                })
                .unwrap();
            assert_done_and_pending(&journal, &done, &pending);
            // A `submitted` replayed after `done` (a crash-resumed
            // resubmit) does not bring the pages back.
            apply_record(&mut lock(&journal.jobs), done.clone());
            assert!(journal.job("done-1").unwrap().pages.is_empty());
        }
        let (journal, diags) = JobJournal::open(&dir).unwrap();
        assert!(diags.is_empty());
        assert_done_and_pending(&journal, &done, &pending);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_length_prefixed() {
        let pair = |u: &str, h: &str| vec![(u.to_string(), h.to_string())];
        assert_ne!(
            pages_fingerprint(&pair("ab", "c")),
            pages_fingerprint(&pair("a", "bc"))
        );
        assert_ne!(pages_fingerprint(&[]), pages_fingerprint(&pair("", "")));
        assert_eq!(
            pages_fingerprint(&pair("a", "b")),
            pages_fingerprint(&pair("a", "b"))
        );
    }

    #[test]
    fn replayed_duplicates_never_double_apply() {
        let mut jobs = BTreeMap::new();
        let recs = sample_records();
        // A crash-resumed submit re-submits and re-records: the index
        // must converge, not accumulate.
        for _ in 0..2 {
            for rec in &recs {
                apply_record(&mut jobs, rec.clone());
            }
        }
        let state = jobs.get("j1").unwrap();
        assert_eq!(state.stages.len(), 1);
        assert_eq!(state.page_count, 1);
        assert!(state.is_done());
    }
}
