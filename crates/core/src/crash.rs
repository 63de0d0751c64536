//! Seeded crash injection for the persistence layer, plus the
//! crash-consistent write primitives it targets.
//!
//! The fourth fault-plan family, after the device `FaultPlan`
//! (`NASSIM_FAULTS`), the ingestion `CorruptionPlan`
//! (`NASSIM_CORRUPT`) and the serving `ServeFaultPlan`: a [`CrashPlan`]
//! — the shared seeded plan of [`nassim_diag::chaos`] — decides
//! deterministically,
//! per persistence operation, whether the "process dies" at a kill
//! point inside that operation — the temp file truncated at an
//! arbitrary byte offset ([`CrashPoint::TruncateTemp`]), the atomic
//! rename never happening ([`CrashPoint::SkipRename`]), or a journal
//! append cut short mid-record ([`CrashPoint::TornAppend`]). The
//! injection performs the *real on-disk effect* of dying at that byte
//! and then surfaces as the typed
//! [`NassimError::CrashInjected`], so recovery code is exercised
//! against exactly the states a SIGKILL can leave behind. Every
//! injection lands in a drainable log and the same seed replays the
//! same sequence (fixed draws per operation, first applicable hit
//! wins).
//!
//! The primitives themselves:
//!
//! * [`atomic_write`] — write to a sibling temp file, fsync, atomically
//!   rename over the destination, fsync the directory. A crash at any
//!   byte leaves either the old committed file or the new one, never a
//!   tear; the worst case is an orphaned `*.tmp.*` sibling, which
//!   [`clean_orphans`] removes (and loads ignore).
//! * [`append_record`] — append one length-delimited record to an open
//!   journal, fsync. A crash mid-append leaves a torn tail that replay
//!   detects by checksum and discards (WAL semantics).
//!
//! Armed process-wide via `NASSIM_CRASH=seed:rate`
//! ([`global_crash_plan`]); tests pass explicit plans.

use nassim_diag::chaos::{FaultClass, Injection, SeededPlan};
use nassim_diag::NassimError;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One kill point inside the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Die while writing the temp file: only a prefix of the bytes
    /// reaches disk, the rename never happens. The committed file is
    /// untouched; a truncated `*.tmp.*` orphan is left behind.
    TruncateTemp,
    /// Die between the (complete, fsynced) temp write and the rename.
    /// The committed file is untouched; a fully-written orphan is left
    /// behind — indistinguishable from a torn one to recovery, which
    /// must trust neither.
    SkipRename,
    /// Die mid-append to a journal: only a prefix of the record reaches
    /// disk. Replay must detect the torn tail and recover everything
    /// before it.
    TornAppend,
}

impl CrashPoint {
    /// All kill points, in the order a [`CrashPlan`] draws them.
    pub const ALL: [CrashPoint; 3] = [
        CrashPoint::TruncateTemp,
        CrashPoint::SkipRename,
        CrashPoint::TornAppend,
    ];

    /// Whether this kill point exists inside `op`.
    fn applies_to(self, op: PersistOp) -> bool {
        match self {
            CrashPoint::TruncateTemp | CrashPoint::SkipRename => op == PersistOp::StoreWrite,
            CrashPoint::TornAppend => op == PersistOp::JournalAppend,
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrashPoint::TruncateTemp => "truncate-temp",
            CrashPoint::SkipRename => "skip-rename",
            CrashPoint::TornAppend => "torn-append",
        })
    }
}

impl FaultClass for CrashPoint {
    const ALL: &'static [CrashPoint] = &CrashPoint::ALL;
}

/// The persistence operation a [`CrashPlan`] decision is drawn for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistOp {
    /// An [`atomic_write`] (temp + fsync + rename + dir fsync).
    StoreWrite,
    /// An [`append_record`] to a journal.
    JournalAppend,
}

/// Where an injected crash struck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSite {
    /// The destination path of the interrupted operation.
    pub path: String,
    /// Byte offset the "process died" at, for the torn classes
    /// (`None` for [`CrashPoint::SkipRename`], which dies between two
    /// byte-complete steps).
    pub offset: Option<usize>,
}

/// A seeded, shareable crash plan over persistence operations.
pub type CrashPlan = SeededPlan<CrashPoint, CrashSite>;

/// One recorded injection: which kill point fired, and where.
pub type InjectedCrash = Injection<CrashPoint, CrashSite>;

/// The process-wide plan, armed once from `NASSIM_CRASH` on first use.
/// `None` (the production state) means every persistence operation runs
/// clean. A fresh plan per save would reseed the RNG each time and make
/// every operation draw identically, so the global is the only
/// env-driven entry point; tests that need isolation pass explicit plans
/// instead.
pub fn global_crash_plan() -> Option<&'static CrashPlan> {
    static GLOBAL: OnceLock<Option<CrashPlan>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| CrashPlan::from_env("NASSIM_CRASH"))
        .as_ref()
}

/// Decide whether the persistence operation `op` targeting `path`
/// (writing `len` bytes) crashes, and where. Only kill points inside
/// `op` can win; the placement draw becomes the byte offset of a torn
/// write.
pub fn decide_crash(
    plan: &CrashPlan,
    op: PersistOp,
    path: &Path,
    len: usize,
) -> Option<InjectedCrash> {
    plan.decide_placed(
        |point| point.applies_to(op),
        |point, frac| CrashSite {
            path: path.display().to_string(),
            offset: match point {
                // A torn write is truly torn: strictly fewer bytes than
                // the record, so recovery can never mistake it for a
                // clean one.
                CrashPoint::TruncateTemp | CrashPoint::TornAppend => {
                    Some(((frac * len as f64) as usize).min(len.saturating_sub(1)))
                }
                CrashPoint::SkipRename => None,
            },
        },
    )
}

/// Distinguishes concurrent writers' temp files; monotonic per process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The sibling temp path an [`atomic_write`] to `path` stages through:
/// `<name>.tmp.<pid>.<counter>` in the same directory (rename is only
/// atomic within a filesystem).
fn temp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!("{name}.tmp.{}.{n}", std::process::id()))
}

/// Whether `candidate` (a file name in `path`'s directory) is a staged
/// temp for `path` — committed-file loads ignore these, and
/// [`clean_orphans`] removes them.
fn is_temp_for(path: &Path, candidate: &str) -> bool {
    let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return false;
    };
    candidate
        .strip_prefix(name.as_str())
        .is_some_and(|rest| rest.starts_with(".tmp."))
}

fn io_err(context: String, e: &std::io::Error) -> NassimError {
    NassimError::Io {
        context,
        reason: e.to_string(),
    }
}

/// Crash-consistently replace `path` with `bytes`: write a sibling temp
/// file, fsync it, atomically rename it over `path`, fsync the
/// directory. Under a [`CrashPlan`] the operation may instead "die" at
/// a kill point — performing the partial on-disk effect (truncated or
/// unrenamed temp) and returning [`NassimError::CrashInjected`] — in
/// which case the previously committed `path` is guaranteed untouched.
///
/// After a successful commit, stale `*.tmp.*` orphans left by earlier
/// crashes are swept best-effort.
pub fn atomic_write(path: &Path, bytes: &[u8], plan: Option<&CrashPlan>) -> Result<(), NassimError> {
    let tmp = temp_path(path);
    let injected = plan.and_then(|p| decide_crash(p, PersistOp::StoreWrite, path, bytes.len()));
    let write_len = match injected.as_ref().map(|c| (c.kind, c.subject.offset)) {
        Some((CrashPoint::TruncateTemp, Some(off))) => off,
        _ => bytes.len(),
    };
    {
        let mut f = File::create(&tmp)
            .map_err(|e| io_err(format!("creating temp file `{}`", tmp.display()), &e))?;
        f.write_all(&bytes[..write_len])
            .map_err(|e| io_err(format!("writing temp file `{}`", tmp.display()), &e))?;
        f.sync_all()
            .map_err(|e| io_err(format!("fsyncing temp file `{}`", tmp.display()), &e))?;
    }
    if let Some(crash) = injected {
        // The "process died" here: the temp orphan stays exactly as the
        // kill point left it, the committed file was never touched.
        return Err(NassimError::CrashInjected {
            path: path.display().to_string(),
            point: crash.kind.to_string(),
        });
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        io_err(
            format!("renaming `{}` over `{}`", tmp.display(), path.display()),
            &e,
        )
    })?;
    // The rename is durable only once the directory entry is; fsync the
    // parent so a power cut after this call cannot resurrect the old
    // file.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = File::open(parent)
            .map_err(|e| io_err(format!("opening directory `{}`", parent.display()), &e))?;
        dir.sync_all()
            .map_err(|e| io_err(format!("fsyncing directory `{}`", parent.display()), &e))?;
    }
    clean_orphans(path);
    Ok(())
}

/// Remove stale `*.tmp.*` siblings left for `path` by crashed
/// [`atomic_write`]s. Best-effort: a temp that vanishes or resists
/// removal is skipped, never an error. Returns the number removed.
pub fn clean_orphans(path: &Path) -> usize {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return 0;
    };
    let Ok(entries) = std::fs::read_dir(parent) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if is_temp_for(path, &name) && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Stale `*.tmp.*` siblings currently littering `path`'s directory
/// (what [`clean_orphans`] would remove).
pub fn orphan_count(path: &Path) -> usize {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return 0;
    };
    let Ok(entries) = std::fs::read_dir(parent) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| is_temp_for(path, &e.file_name().to_string_lossy()))
        .count()
}

/// Append one record (the caller frames it — the serve journal uses one
/// checksummed JSON line) to an open journal file and fsync it. Under a
/// [`CrashPlan`] the append may "die" mid-record: a prefix of the bytes
/// is written (and synced, so the torn tail is really on disk) and
/// [`NassimError::CrashInjected`] is returned — replay detects the tear
/// by checksum and discards it.
pub fn append_record(
    file: &mut File,
    path: &Path,
    bytes: &[u8],
    plan: Option<&CrashPlan>,
) -> Result<(), NassimError> {
    let injected = plan.and_then(|p| decide_crash(p, PersistOp::JournalAppend, path, bytes.len()));
    let write_len = match injected.as_ref().map(|c| (c.kind, c.subject.offset)) {
        Some((CrashPoint::TornAppend, Some(off))) => off,
        _ => bytes.len(),
    };
    file.write_all(&bytes[..write_len])
        .map_err(|e| io_err(format!("appending to journal `{}`", path.display()), &e))?;
    file.sync_all()
        .map_err(|e| io_err(format!("fsyncing journal `{}`", path.display()), &e))?;
    if let Some(crash) = injected {
        return Err(NassimError::CrashInjected {
            path: path.display().to_string(),
            point: crash.kind.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_fire_at_moderate_rates_and_respect_op_class() {
        let plan = CrashPlan::uniform(11, 0.4);
        let p = Path::new("s.json");
        let j = Path::new("j.log");
        for i in 0..300 {
            if i % 2 == 0 {
                decide_crash(&plan, PersistOp::StoreWrite, p, 4096);
            } else {
                decide_crash(&plan, PersistOp::JournalAppend, j, 256);
            }
        }
        let log = plan.take_injections();
        for point in CrashPoint::ALL {
            assert!(
                log.iter().any(|f| f.kind == point),
                "{point} never fired in 300 ops"
            );
        }
        // Kill points only ever fire inside the op they live in.
        for inj in &log {
            match inj.kind {
                CrashPoint::TornAppend => assert_eq!(inj.subject.path, "j.log"),
                _ => assert_eq!(inj.subject.path, "s.json"),
            }
        }
    }

    #[test]
    fn torn_offsets_are_strictly_short() {
        let plan = CrashPlan::uniform(5, 1.0);
        for len in [1usize, 2, 64, 4096] {
            let inj = decide_crash(&plan, PersistOp::JournalAppend, Path::new("j.log"), len)
                .expect("rate 1.0 always injects");
            let off = inj.subject.offset.expect("torn appends carry an offset");
            assert!(off < len, "offset {off} not short of {len}");
        }
    }

    #[test]
    fn atomic_write_commits_and_injections_never_touch_committed() {
        let dir = std::env::temp_dir().join("nassim-crash-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        atomic_write(&path, b"committed-v1", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"committed-v1");

        let plan = CrashPlan::uniform(9, 1.0);
        let mut crashes = 0;
        for i in 0..20 {
            let next = format!("candidate-{i}");
            match atomic_write(&path, next.as_bytes(), Some(&plan)) {
                Ok(()) => {
                    // At rate 1.0 every class draws a hit, and
                    // TruncateTemp is drawn first and applies to store
                    // writes, so no write can commit.
                    unreachable!("rate-1.0 store writes always hit a store class");
                }
                Err(NassimError::CrashInjected { .. }) => {
                    crashes += 1;
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        b"committed-v1",
                        "injected crash touched the committed file"
                    );
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(crashes, 20);
        assert!(orphan_count(&path) > 0, "crashes leave temp orphans");

        // A clean write commits and sweeps the orphans.
        atomic_write(&path, b"committed-v2", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"committed-v2");
        assert_eq!(orphan_count(&path), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_leaves_a_strict_prefix() {
        let dir = std::env::temp_dir().join("nassim-crash-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let mut file = File::create(&path).unwrap();
        append_record(&mut file, &path, b"rec-one\n", None).unwrap();
        let committed = std::fs::read(&path).unwrap();

        let plan = CrashPlan::uniform(13, 1.0);
        let err = append_record(&mut file, &path, b"rec-two\n", Some(&plan));
        assert!(matches!(err, Err(NassimError::CrashInjected { .. })));
        let after = std::fs::read(&path).unwrap();
        assert!(after.starts_with(&committed));
        assert!(
            after.len() < committed.len() + b"rec-two\n".len(),
            "torn append wrote the full record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
