//! The serving daemon: a blocking TCP server answering the
//! [`crate::protocol`] over admission control, with per-connection panic
//! isolation, per-request deadlines propagated into every pipeline
//! stage, graceful drain behind a generation counter, and a drainable
//! event log accounting for every shed, deadline, malformed frame,
//! mid-frame disconnect and caught panic.
//!
//! Thread-per-connection, like [`nassim_device::DeviceServer`]: the
//! workload is request/response lines at serving scale, where blocking
//! threads behind a bounded admission gate are the simplest design that
//! is obviously correct — the gate, not the thread count, bounds the
//! concurrent pipeline work.

use crate::admission::{Admission, AdmissionConfig, Deadline, ShedReason};
use crate::journal::{JobJournal, JournalRecord};
use crate::protocol::{ok_line, progress_line, ErrKind, ErrReply, Request};
use crate::state::ServeState;
use nassim::{corpus_key, ArtifactStore};
use nassim_device::framing::{Frame, FrameAccumulator, MAX_FRAME_BYTES};
use nassim_diag::NassimError;
use nassim_html::IngestBudget;
use nassim_mapper::Context;
use nassim_parser::{parser_for, VendorParser};
use crate::lock;
use serde::Value;
use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most ServeEvents retained between [`ServeDaemon::take_events`] calls.
/// The daemon binary never drains the log, so it must be bounded: past
/// the cap the *oldest* events are dropped and counted, keeping a
/// long-running daemon under sustained overload or garbage traffic at
/// constant memory. Far above what the chaos matrix produces per drain.
pub const EVENT_LOG_CAP: usize = 16_384;

/// Daemon construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    pub admission: AdmissionConfig,
    /// Allow `debug-sleep`/`debug-panic` (tests and benches only; a
    /// production daemon answers them with `unknown_op`).
    pub enable_debug_ops: bool,
    /// Directory of the write-ahead job journal ([`crate::journal`]).
    /// `None` disables journaled submissions; with `Some`, spawn opens
    /// the journal (truncating any torn tail) and finishes every
    /// pending job *before* accepting connections.
    pub journal_dir: Option<PathBuf>,
}

/// Monotonic counters `health` exposes. All relaxed: they are reporting,
/// not synchronization.
#[derive(Debug, Default)]
pub struct ServeCounters {
    pub served: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_draining: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub malformed: AtomicU64,
    pub panics: AtomicU64,
    pub disconnects: AtomicU64,
    /// Jobs whose intent record was durably journaled.
    pub jobs_journaled: AtomicU64,
    /// Pending jobs completed during spawn-time recovery.
    pub jobs_recovered: AtomicU64,
    /// Torn journal records truncated away when the journal was opened.
    pub journal_torn: AtomicU64,
}

/// A point-in-time copy of [`ServeCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    pub served: u64,
    pub shed_overload: u64,
    pub shed_draining: u64,
    pub deadline_expired: u64,
    pub malformed: u64,
    pub panics: u64,
    pub disconnects: u64,
    pub jobs_journaled: u64,
    pub jobs_recovered: u64,
    pub journal_torn: u64,
}

impl ServeCounters {
    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            served: self.served.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            shed_draining: self.shed_draining.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            jobs_journaled: self.jobs_journaled.load(Ordering::Relaxed),
            jobs_recovered: self.jobs_recovered.load(Ordering::Relaxed),
            journal_torn: self.journal_torn.load(Ordering::Relaxed),
        }
    }
}

/// One accounted serving event, in occurrence order. Every request that
/// was *not* answered with its normal reply appears here — the drain log
/// the chaos harness reconciles against its injection log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEvent {
    /// A request was shed (overloaded / draining / queued past its
    /// deadline) instead of admitted.
    Shed { op: String, reason: ShedReason },
    /// An admitted request's deadline expired mid-pipeline.
    DeadlineExpired { op: String, stage: String },
    /// An unparseable request frame was answered with a typed error.
    Malformed { detail: String },
    /// The peer disconnected mid-frame (`partial` buffered bytes lost).
    Disconnect { partial: usize },
    /// A handler panicked; the panic was caught, the connection
    /// answered `internal` and kept serving.
    Panicked { op: String, payload: String },
    /// A drain completed: every in-flight request finished, `generation`
    /// is the new value.
    Drained { generation: u64 },
    /// A pending journaled job was completed during spawn-time recovery.
    JobRecovered { job: String },
    /// The durability layer degraded without losing committed state: a
    /// torn journal tail truncated at open, a salvaged job store, an
    /// injected crash mid-persist. Each is accounted, never silent.
    DurabilityDegraded { detail: String },
}

/// Bounded ring of [`ServeEvent`]s: past [`EVENT_LOG_CAP`] the oldest
/// entries are evicted and tallied in `dropped`.
#[derive(Debug, Default)]
struct EventLog {
    buf: VecDeque<ServeEvent>,
    dropped: u64,
}

impl EventLog {
    fn push(&mut self, event: ServeEvent) {
        if self.buf.len() >= EVENT_LOG_CAP {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn take(&mut self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.buf).into()
    }
}

/// A running serving daemon; dropping the handle drains and stops it.
pub struct ServeDaemon {
    addr: SocketAddr,
    state: Arc<ServeState>,
    admission: Arc<Admission>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    generation: Arc<AtomicU64>,
    counters: Arc<ServeCounters>,
    events: Arc<Mutex<EventLog>>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServeDaemon {
    /// Bind an ephemeral localhost port and serve `state`. With a
    /// journal configured, opens it (truncating any torn tail — counted
    /// in `journal_torn`) and completes every pending job *before* the
    /// accept loop starts, so a client that reconnects after a kill
    /// finds its jobs done.
    pub fn spawn(state: Arc<ServeState>, config: ServeConfig) -> io::Result<ServeDaemon> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let admission = Arc::new(Admission::new(config.admission));
        let shutdown = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        let events: Arc<Mutex<EventLog>> = Arc::new(Mutex::new(EventLog::default()));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let journal = match &config.journal_dir {
            None => None,
            Some(dir) => {
                let (journal, diags) = JobJournal::open(dir).map_err(io::Error::other)?;
                counters
                    .journal_torn
                    .fetch_add(journal.torn_at_open(), Ordering::Relaxed);
                let mut log = lock(&events);
                for d in diags {
                    log.push(ServeEvent::DurabilityDegraded { detail: d.message });
                }
                drop(log);
                Some(Arc::new(journal))
            }
        };
        if let Some(journal) = &journal {
            recover_pending_jobs(journal, &counters, &events);
        }

        let ctx = ConnCtx {
            state: Arc::clone(&state),
            admission: Arc::clone(&admission),
            counters: Arc::clone(&counters),
            events: Arc::clone(&events),
            shutdown: Arc::clone(&shutdown),
            draining: Arc::clone(&draining),
            enable_debug_ops: config.enable_debug_ops,
            journal,
        };
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if ctx.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if ctx.draining.load(Ordering::SeqCst) {
                        // New connections during drain get one typed
                        // frame and are closed without a session thread.
                        let mut stream = stream;
                        let line =
                            ErrReply::new(ErrKind::Draining, "daemon is draining").to_line();
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                        ctx.counters.shed_draining.fetch_add(1, Ordering::Relaxed);
                        lock(&ctx.events).push(ServeEvent::Shed {
                            op: "connect".to_string(),
                            reason: ShedReason::Draining,
                        });
                        continue;
                    }
                    let conn_ctx = ctx.clone();
                    let spawned = std::thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || {
                            // Connection I/O errors are peer problems; the
                            // accounting that matters (disconnects,
                            // malformed, panics) already happened inside.
                            let _ = serve_connection(stream, &conn_ctx);
                        });
                    if let Ok(handle) = spawned {
                        let mut conns = lock(&accept_conns);
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                }
            })?;

        Ok(ServeDaemon {
            addr,
            state,
            admission,
            config,
            shutdown,
            draining,
            generation: Arc::new(AtomicU64::new(0)),
            counters,
            events,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served artifacts (shared).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Completed drain cycles.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Counter snapshot (also served remotely via `health`).
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Drain the event log accumulated since the last call. At most
    /// [`EVENT_LOG_CAP`] events are retained between calls; see
    /// [`ServeDaemon::dropped_events`] for the eviction tally.
    pub fn take_events(&self) -> Vec<ServeEvent> {
        lock(&self.events).take()
    }

    /// Total events evicted from the bounded log since startup (a
    /// long-running daemon that is never drained keeps only the most
    /// recent [`EVENT_LOG_CAP`] events).
    pub fn dropped_events(&self) -> u64 {
        lock(&self.events).dropped
    }

    /// Graceful drain: stop admitting, shed the queue, wait for every
    /// in-flight request to complete, then bump the generation counter.
    /// Idempotent; concurrent callers all return once drained.
    pub fn drain(&self) {
        let first = !self.draining.swap(true, Ordering::SeqCst);
        self.admission.begin_drain();
        self.admission.wait_idle();
        if first {
            let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
            lock(&self.events).push(ServeEvent::Drained { generation });
        }
    }

    /// Drain, then stop the listener and join every thread. The accept
    /// thread exits on its own (unblocked by a no-op connection) — it is
    /// joined, never killed.
    pub fn stop(&mut self) {
        self.drain();
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in lock(&self.conn_threads).drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything a connection thread needs, cloneable per connection.
#[derive(Clone)]
struct ConnCtx {
    state: Arc<ServeState>,
    admission: Arc<Admission>,
    counters: Arc<ServeCounters>,
    events: Arc<Mutex<EventLog>>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    enable_debug_ops: bool,
    /// The write-ahead job journal, when configured.
    journal: Option<Arc<JobJournal>>,
}

fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Serve one connection until the peer closes, the daemon shuts down, or
/// the connection is retired by drain. Every request — including a
/// panicking one — is answered with exactly one final frame.
fn serve_connection(stream: TcpStream, ctx: &ConnCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // A peer that stops reading backpressures TCP until our writes
    // block; without a timeout that pins this thread (and any admission
    // permit it holds) forever and hangs stop()'s join. A timed-out
    // write errors out of the loop below, closing the connection.
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut frames = FrameAccumulator::new(MAX_FRAME_BYTES);
    loop {
        let line = match frames.poll(&mut reader) {
            Ok(Some(Frame::Line(line))) => line,
            Ok(Some(Frame::Eof)) => {
                // A clean close ends the session silently; bytes left in
                // the accumulator mean the peer vanished mid-frame — an
                // accounted event (slow-loris peers that never finish a
                // line land here too, via their eventual disconnect).
                let partial = frames.partial_len();
                if partial > 0 {
                    ctx.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                    lock(&ctx.events).push(ServeEvent::Disconnect { partial });
                }
                return Ok(());
            }
            Ok(None) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized or non-UTF-8 frame: typed reply, then drop
                // the connection (the stream is no longer frame-aligned).
                ctx.counters.malformed.fetch_add(1, Ordering::Relaxed);
                lock(&ctx.events)
                    .push(ServeEvent::Malformed { detail: e.to_string() });
                let _ = write_line(
                    &mut writer,
                    &ErrReply::new(ErrKind::Malformed, e.to_string()).to_line(),
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            continue;
        }
        // Drain retires idle connections at their next request: one
        // typed frame, then close (in-flight requests are not here —
        // they are still inside handle_request).
        if ctx.draining.load(Ordering::SeqCst) {
            ctx.counters.shed_draining.fetch_add(1, Ordering::Relaxed);
            lock(&ctx.events).push(ServeEvent::Shed {
                op: "request".to_string(),
                reason: ShedReason::Draining,
            });
            write_line(
                &mut writer,
                &ErrReply::new(ErrKind::Draining, "daemon is draining").to_line(),
            )?;
            return Ok(());
        }
        // Parse exactly once (submit-manual frames run to MAX_FRAME_BYTES,
        // so re-parsing is real per-request CPU); the op and deadline are
        // lifted out before the parse result moves into the handler.
        let parsed = Request::parse(&line);
        let op = parsed
            .as_ref()
            .map(|r| r.op().to_string())
            .unwrap_or_else(|_| "?".to_string());
        // The deadline clock starts at frame receipt: queueing time
        // counts against the request's budget.
        let deadline =
            Deadline::started(parsed.as_ref().ok().and_then(|r| r.deadline_ms()));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request(parsed, &deadline, ctx, &mut writer)
        }));
        match outcome {
            Ok(result) => result?,
            Err(payload) => {
                let payload = panic_payload(payload);
                ctx.counters.panics.fetch_add(1, Ordering::Relaxed);
                lock(&ctx.events).push(ServeEvent::Panicked {
                    op,
                    payload: payload.clone(),
                });
                write_line(
                    &mut writer,
                    &ErrReply::new(
                        ErrKind::Internal,
                        format!("request handler panicked: {payload}"),
                    )
                    .to_line(),
                )?;
            }
        }
    }
}

fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Admit and execute one already-parsed request, writing every reply
/// frame.
fn handle_request(
    parsed: Result<Request, ErrReply>,
    deadline: &Deadline,
    ctx: &ConnCtx,
    writer: &mut impl Write,
) -> io::Result<()> {
    let request = match parsed {
        Ok(request) => request,
        Err(err) => {
            // Unknown ops are answered but not accounted as malformed —
            // the malformed counter reconciles against injected garbage
            // frames, which always fail *parsing*, not dispatch.
            if err.kind == ErrKind::Malformed {
                ctx.counters.malformed.fetch_add(1, Ordering::Relaxed);
                lock(&ctx.events).push(ServeEvent::Malformed {
                    detail: err.message.clone(),
                });
            }
            return write_line(writer, &err.to_line());
        }
    };
    if matches!(request, Request::DebugSleep { .. } | Request::DebugPanic)
        && !ctx.enable_debug_ops
    {
        return write_line(
            writer,
            &ErrReply::new(ErrKind::UnknownOp, "debug ops are disabled").to_line(),
        );
    }

    // Control-plane ops bypass admission so health stays answerable
    // under full overload.
    let _permit = if request.is_admitted() {
        match ctx.admission.admit(deadline) {
            Ok(permit) => Some(permit),
            Err(reason) => {
                let (kind, message, counter) = match reason {
                    ShedReason::Overloaded => (
                        ErrKind::Overloaded,
                        "admission queue full, request shed",
                        &ctx.counters.shed_overload,
                    ),
                    ShedReason::Draining => (
                        ErrKind::Draining,
                        "daemon is draining",
                        &ctx.counters.shed_draining,
                    ),
                    ShedReason::DeadlineExpired => (
                        ErrKind::Deadline,
                        "deadline expired before admission",
                        &ctx.counters.deadline_expired,
                    ),
                };
                counter.fetch_add(1, Ordering::Relaxed);
                lock(&ctx.events).push(ServeEvent::Shed {
                    op: request.op().to_string(),
                    reason,
                });
                return write_line(writer, &ErrReply::new(kind, message).to_line());
            }
        }
    } else {
        None
    };

    match request {
        Request::Health => write_line(writer, &ok_line(health_payload(ctx))),
        Request::Catalog => {
            let vendors: Vec<Value> = ctx
                .state
                .vendors
                .values()
                .map(vendor_summary)
                .collect();
            write_line(
                writer,
                &ok_line(Value::Obj(vec![("vendors".to_string(), Value::Arr(vendors))])),
            )
        }
        Request::Inspect { vendor } => match ctx.state.vendors.get(&vendor) {
            None => write_line(
                writer,
                &ErrReply::new(
                    ErrKind::UnknownVendor,
                    format!("vendor `{vendor}` is not in the catalog"),
                )
                .to_line(),
            ),
            Some(entry) => {
                let mut fields = match vendor_summary(entry) {
                    Value::Obj(fields) => fields,
                    _ => Vec::new(),
                };
                let sample: Vec<Value> = entry
                    .vdm
                    .walk()
                    .into_iter()
                    .take(5)
                    .map(|id| Value::Str(entry.vdm.path_of(id).join(" / ")))
                    .collect();
                fields.push(("sample_paths".to_string(), Value::Arr(sample)));
                write_line(writer, &ok_line(Value::Obj(fields)))
            }
        },
        Request::QueryMapping {
            sequences, k, mode, ..
        } => {
            if let Err(stage) = deadline.check("dl-scan") {
                return deadline_reply(ctx, writer, "query-mapping", "dl-scan", &stage);
            }
            let ctx_q = Context { sequences };
            let mapper = ctx.state.mapper_for(mode);
            let matches: Vec<Value> = mapper
                .recommend(&ctx_q, k)
                .into_iter()
                .map(|(leaf, score)| {
                    Value::Obj(vec![
                        (
                            "path".to_string(),
                            Value::Str(mapper.udm().path_of(leaf)),
                        ),
                        ("score".to_string(), Value::Num(score as f64)),
                    ])
                })
                .collect();
            ctx.counters.served.fetch_add(1, Ordering::Relaxed);
            write_line(
                writer,
                &ok_line(Value::Obj(vec![("matches".to_string(), Value::Arr(matches))])),
            )
        }
        Request::SubmitManual {
            vendor,
            pages,
            deadline_ms,
            job,
        } => submit_manual(
            ctx,
            &vendor,
            &pages,
            deadline,
            deadline_ms,
            job.as_deref(),
            writer,
        ),
        Request::JobStatus { job } => job_status(ctx, &job, writer),
        Request::DebugSleep { ms } => {
            // Sleep in slices so shutdown never waits the full hold.
            let mut remaining = Duration::from_millis(ms);
            while !remaining.is_zero() && !ctx.shutdown.load(Ordering::SeqCst) {
                let step = remaining.min(Duration::from_millis(10));
                std::thread::sleep(step);
                remaining -= step;
            }
            ctx.counters.served.fetch_add(1, Ordering::Relaxed);
            write_line(
                writer,
                &ok_line(Value::Obj(vec![(
                    "slept_ms".to_string(),
                    Value::Num(ms as f64),
                )])),
            )
        }
        Request::DebugPanic => {
            panic!("debug-panic requested by client");
        }
    }
}

fn vendor_summary(entry: &crate::state::VendorEntry) -> Value {
    Value::Obj(vec![
        ("vendor".to_string(), Value::Str(entry.vendor.clone())),
        ("pages".to_string(), Value::Num(entry.pages as f64)),
        ("nodes".to_string(), Value::Num(entry.nodes as f64)),
        ("params".to_string(), Value::Num(entry.params as f64)),
    ])
}

fn health_payload(ctx: &ConnCtx) -> Value {
    let (active, queued) = ctx.admission.depths();
    let cfg = ctx.admission.config();
    let c = ctx.counters.snapshot();
    let pool = nassim_exec::pool_stats();
    Value::Obj(vec![
        ("draining".to_string(), Value::Bool(ctx.draining.load(Ordering::SeqCst))),
        ("active".to_string(), Value::Num(active as f64)),
        ("queued".to_string(), Value::Num(queued as f64)),
        ("workers".to_string(), Value::Num(cfg.workers as f64)),
        ("queue_capacity".to_string(), Value::Num(cfg.queue as f64)),
        ("served".to_string(), Value::Num(c.served as f64)),
        ("shed_overload".to_string(), Value::Num(c.shed_overload as f64)),
        ("shed_draining".to_string(), Value::Num(c.shed_draining as f64)),
        ("deadline_expired".to_string(), Value::Num(c.deadline_expired as f64)),
        ("malformed".to_string(), Value::Num(c.malformed as f64)),
        ("panics".to_string(), Value::Num(c.panics as f64)),
        ("disconnects".to_string(), Value::Num(c.disconnects as f64)),
        (
            "events_dropped".to_string(),
            Value::Num(lock(&ctx.events).dropped as f64),
        ),
        ("jobs_journaled".to_string(), Value::Num(c.jobs_journaled as f64)),
        ("jobs_recovered".to_string(), Value::Num(c.jobs_recovered as f64)),
        ("journal_torn".to_string(), Value::Num(c.journal_torn as f64)),
        (
            "journal_pending".to_string(),
            Value::Num(ctx.journal.as_ref().map_or(0, |j| j.pending_count()) as f64),
        ),
        (
            "pool".to_string(),
            Value::Obj(vec![
                ("workers".to_string(), Value::Num(pool.workers as f64)),
                ("jobs".to_string(), Value::Num(pool.jobs as f64)),
                ("respawns".to_string(), Value::Num(pool.respawns as f64)),
            ]),
        ),
        (
            "vendors".to_string(),
            Value::Num(ctx.state.vendors.len() as f64),
        ),
        ("retrieval".to_string(), retrieval_payload(ctx)),
    ])
}

/// The `health` reply's view of the retrieval layer: the default mode,
/// corpus size, sub-linear index shape and the index memo's build-time
/// hit rate (1.0 on a warm start — the k-means build was skipped).
fn retrieval_payload(ctx: &ConnCtx) -> Value {
    let stats = ctx.state.mapper.retrieval_stats();
    let (hits, misses) = (ctx.state.ann_memo_hits, ctx.state.ann_memo_misses);
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    Value::Obj(vec![
        ("mode".to_string(), Value::Str(stats.mode.to_string())),
        ("leaf_count".to_string(), Value::Num(stats.leaf_count as f64)),
        (
            "index_build_ms".to_string(),
            Value::Num(stats.index_build_ms),
        ),
        ("nlist".to_string(), Value::Num(stats.nlist as f64)),
        ("ann_memo_hits".to_string(), Value::Num(hits as f64)),
        ("ann_memo_misses".to_string(), Value::Num(misses as f64)),
        ("ann_memo_hit_rate".to_string(), Value::Num(hit_rate)),
    ])
}

fn deadline_reply(
    ctx: &ConnCtx,
    writer: &mut impl Write,
    op: &str,
    stage: &str,
    message: &str,
) -> io::Result<()> {
    ctx.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
    lock(&ctx.events).push(ServeEvent::DeadlineExpired {
        op: op.to_string(),
        stage: stage.to_string(),
    });
    write_line(writer, &ErrReply::new(ErrKind::Deadline, message).to_line())
}

/// How one submit pipeline run ended (short of I/O failure to the
/// client).
enum SubmitOutcome {
    /// The final `ok` payload.
    Done(Value),
    /// The request deadline expired before `stage`.
    Expired { stage: &'static str, message: String },
    /// Persisting the job's store or journal record failed (injected
    /// crash or real I/O error). The job stays pending — committed
    /// durable state is untouched, and a restart finishes it.
    PersistFailed { stage: &'static str, err: NassimError },
}

/// The staged §4–§5 pipeline run through an [`ArtifactStore`]: one
/// progress call and one deadline check per stage, and — when a journal
/// context is supplied — an atomic store save plus a fsynced stage
/// record after each stage that is not already durable. Pure in
/// (vendor, pages): the incremental store path is bit-for-bit identical
/// to the cold pipeline (the core crate's differential guarantee), so
/// identical submissions yield byte-identical frame sequences whether
/// they run cold, warm, or resumed after a kill.
fn run_submit_pipeline(
    parser: &dyn VendorParser,
    vendor: &str,
    pages: &[(String, String)],
    deadline: &Deadline,
    store: &mut ArtifactStore,
    journal: Option<(&JobJournal, &str)>,
    mut progress: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<SubmitOutcome> {
    let budget = IngestBudget::default();
    let refs: Vec<(&str, &str)> = pages
        .iter()
        .map(|(u, h)| (u.as_str(), h.as_str()))
        .collect();

    // Persist one completed stage: save the store atomically, then
    // journal the stage record. Skipped when the stage is already
    // durable (recovery re-runs the pipeline; completed stages are
    // cache hits and must not duplicate their records).
    let persist = |store: &ArtifactStore,
                   stage: &'static str,
                   key: u64|
     -> Result<(), NassimError> {
        let Some((journal, job)) = journal else {
            return Ok(());
        };
        if journal.has_stage(job, stage) {
            return Ok(());
        }
        store.save(&journal.job_store_path(job))?;
        journal.append(&JournalRecord::Stage {
            job: job.to_string(),
            stage: stage.to_string(),
            key: format!("{key:016x}"),
        })
    };

    // Stage 1: parse every page (panic-isolated parser fan-out; cached
    // pages are artifact-store hits).
    if let Err(message) = deadline.check("parse") {
        return Ok(SubmitOutcome::Expired { stage: "parse", message });
    }
    progress("parse")?;
    let (parse, page_keys) = match store.parse_stage(parser, refs, &budget) {
        Ok(out) => out,
        // Unreachable in practice (the protocol rejects empty `pages`),
        // but typed rather than assumed.
        Err(err) => return Ok(SubmitOutcome::PersistFailed { stage: "parse", err }),
    };
    let ckey = corpus_key(&page_keys);
    if let Err(err) = persist(store, "parse", ckey) {
        return Ok(SubmitOutcome::PersistFailed { stage: "parse", err });
    }

    // Stage 2: formal syntax audit.
    if let Err(message) = deadline.check("syntax") {
        return Ok(SubmitOutcome::Expired { stage: "syntax", message });
    }
    progress("syntax")?;
    let syntax = store.syntax_stage(&parse);
    if let Err(err) = persist(store, "syntax", ckey) {
        return Ok(SubmitOutcome::PersistFailed { stage: "syntax", err });
    }

    // Stage 3: hierarchy derivation (compiled CGM graphs and evidence
    // are store-cached, so a resumed job replays them from disk).
    if let Err(message) = deadline.check("hierarchy") {
        return Ok(SubmitOutcome::Expired { stage: "hierarchy", message });
    }
    progress("hierarchy")?;
    let derivation = store.hierarchy_stage(&parse, &page_keys);
    if let Err(err) = persist(store, "hierarchy", ckey) {
        return Ok(SubmitOutcome::PersistFailed { stage: "hierarchy", err });
    }

    // Stage 4: VDM assembly.
    if let Err(message) = deadline.check("build") {
        return Ok(SubmitOutcome::Expired { stage: "build", message });
    }
    progress("build")?;
    let build = store.build_stage(vendor, &parse, &page_keys, &derivation);
    if let Err(err) = persist(store, "build", ckey) {
        return Ok(SubmitOutcome::PersistFailed { stage: "build", err });
    }

    let diagnostics = parse.diagnostics.len() + build.diagnostics(&parse.pages).len();
    Ok(SubmitOutcome::Done(Value::Obj(vec![
        ("vendor".to_string(), Value::Str(vendor.to_string())),
        ("pages".to_string(), Value::Num(pages.len() as f64)),
        (
            "parsed_pages".to_string(),
            Value::Num(parse.pages.len() as f64),
        ),
        (
            "quarantined".to_string(),
            Value::Num(parse.quarantined.len() as f64),
        ),
        ("nodes".to_string(), Value::Num(build.vdm.walk().len() as f64)),
        (
            "syntax_checked".to_string(),
            Value::Num(syntax.total_clis as f64),
        ),
        (
            "syntax_invalid".to_string(),
            Value::Num(syntax.invalid_count() as f64),
        ),
        (
            "unplaced_pages".to_string(),
            Value::Num(build.unplaced_pages.len() as f64),
        ),
        ("diagnostics".to_string(), Value::Num(diagnostics as f64)),
    ])))
}

/// Load a job's persisted store, salvaging what a crash mid-save left
/// behind; every salvage report is an accounted event.
fn load_job_store(ctx: &ConnCtx, journal: &JobJournal, job: &str) -> ArtifactStore {
    let path = journal.job_store_path(job);
    if !path.exists() {
        return ArtifactStore::new();
    }
    match ArtifactStore::load_lossy(&path) {
        Ok((store, diags)) => {
            let mut log = lock(&ctx.events);
            for d in diags {
                log.push(ServeEvent::DurabilityDegraded { detail: d.message });
            }
            store
        }
        Err(e) => {
            lock(&ctx.events).push(ServeEvent::DurabilityDegraded {
                detail: format!("job `{job}` store unusable, recomputing from journal: {e}"),
            });
            ArtifactStore::new()
        }
    }
}

/// `submit-manual`: the staged pipeline, optionally journaled. Without
/// a `job` id the request is stateless, exactly as before journaling
/// existed. With one, the write-ahead discipline applies: intent is
/// durable before any work, each stage before the next, the reply
/// before it is sent — so a `SIGKILL` anywhere leaves a job a restarted
/// daemon finishes identically.
fn submit_manual(
    ctx: &ConnCtx,
    vendor: &str,
    pages: &[(String, String)],
    deadline: &Deadline,
    deadline_ms: Option<u64>,
    job: Option<&str>,
    writer: &mut impl Write,
) -> io::Result<()> {
    let op = "submit-manual";
    let parser = match parser_for(vendor) {
        Ok(parser) => parser,
        Err(_) => {
            write_line(
                writer,
                &ErrReply::new(
                    ErrKind::UnknownVendor,
                    format!("no parser registered for vendor `{vendor}`"),
                )
                .to_line(),
            )?;
            return Ok(());
        }
    };

    let durability_err = |ctx: &ConnCtx, stage: &str, err: &NassimError| -> ErrReply {
        lock(&ctx.events).push(ServeEvent::DurabilityDegraded {
            detail: format!("submit stage `{stage}`: {err}"),
        });
        ErrReply::new(
            ErrKind::Internal,
            format!("durable persist failed at stage `{stage}`: {err} (job state is recoverable)"),
        )
    };

    let journal_ctx: Option<(Arc<JobJournal>, String)> = match job {
        None => None,
        Some(id) => {
            let Some(journal) = &ctx.journal else {
                return write_line(
                    writer,
                    &ErrReply::new(
                        ErrKind::UnknownOp,
                        "journaled submissions are disabled (daemon has no journal)",
                    )
                    .to_line(),
                );
            };
            // Read only what the check compares: cloning the state would
            // copy a pending job's whole manual.
            let existing =
                journal.with_job(id, |s| (s.same_content(vendor, pages), s.result.clone()));
            if let Some((same_content, result)) = existing {
                // A job id binds to its content: the same id with a
                // different payload is a client bug, not a resume or a
                // replay.
                if !same_content {
                    return write_line(
                        writer,
                        &ErrReply::new(
                            ErrKind::Malformed,
                            format!("job `{id}` is already journaled with different content"),
                        )
                        .to_line(),
                    );
                }
                // Idempotent replay: a done job answers its recorded
                // payload — byte-identical to the original final frame —
                // without re-running anything.
                if let Some(result) = result {
                    ctx.counters.served.fetch_add(1, Ordering::Relaxed);
                    return write_line(writer, &ok_line(result));
                }
            } else {
                // Write-ahead intent: durable before any pipeline work.
                if let Err(e) = journal.append(&JournalRecord::Submitted {
                    job: id.to_string(),
                    vendor: vendor.to_string(),
                    deadline_ms,
                    pages: pages.to_vec(),
                }) {
                    return write_line(writer, &durability_err(ctx, "submit", &e).to_line());
                }
                ctx.counters.jobs_journaled.fetch_add(1, Ordering::Relaxed);
            }
            Some((Arc::clone(journal), id.to_string()))
        }
    };

    let mut store = match &journal_ctx {
        Some((journal, id)) => load_job_store(ctx, journal, id),
        None => ArtifactStore::new(),
    };
    let outcome = run_submit_pipeline(
        parser.as_ref(),
        vendor,
        pages,
        deadline,
        &mut store,
        journal_ctx.as_ref().map(|(j, id)| (j.as_ref(), id.as_str())),
        |stage| {
            write_line(
                writer,
                &progress_line(Value::Obj(vec![(
                    "stage".to_string(),
                    Value::Str(stage.to_string()),
                )])),
            )
        },
    )?;

    match outcome {
        SubmitOutcome::Done(payload) => {
            if let Some((journal, id)) = &journal_ctx {
                // The reply is durable before the client can see it; a
                // kill between fsync and send re-serves it from the
                // journal, byte-identically.
                if let Err(e) = journal.append(&JournalRecord::Done {
                    job: id.clone(),
                    result: payload.clone(),
                }) {
                    return write_line(writer, &durability_err(ctx, "done", &e).to_line());
                }
                journal.remove_job_store(id);
            }
            // Count before writing: a client that has read the final
            // frame must already see this request in `served`.
            ctx.counters.served.fetch_add(1, Ordering::Relaxed);
            write_line(writer, &ok_line(payload))
        }
        SubmitOutcome::Expired { stage, message } => {
            // A journaled job stays pending: the deadline bounds this
            // request's latency, not the job's durability — a restart
            // (or resubmit) completes it off the clock.
            deadline_reply(ctx, writer, op, stage, &message)
        }
        SubmitOutcome::PersistFailed { stage, err } => {
            write_line(writer, &durability_err(ctx, stage, &err).to_line())
        }
    }
}

/// `job-status`: the journal's view of one job.
fn job_status(ctx: &ConnCtx, job: &str, writer: &mut impl Write) -> io::Result<()> {
    let Some(journal) = &ctx.journal else {
        return write_line(
            writer,
            &ErrReply::new(
                ErrKind::UnknownOp,
                "journaled submissions are disabled (daemon has no journal)",
            )
            .to_line(),
        );
    };
    // Built under the index lock so a pending job's pages are never
    // cloned just to be counted.
    let status = journal.with_job(job, |state| {
        let mut fields: Vec<(String, Value)> = vec![
            ("job".to_string(), Value::Str(job.to_string())),
            (
                "state".to_string(),
                Value::Str(if state.is_done() { "done" } else { "pending" }.to_string()),
            ),
            ("vendor".to_string(), Value::Str(state.vendor.clone())),
            ("pages".to_string(), Value::Num(state.page_count as f64)),
            (
                "stages".to_string(),
                Value::Arr(
                    state
                        .stages
                        .iter()
                        .map(|(s, _)| Value::Str(s.clone()))
                        .collect(),
                ),
            ),
        ];
        if let Some(result) = &state.result {
            fields.push(("result".to_string(), result.clone()));
        }
        Value::Obj(fields)
    });
    match status {
        None => write_line(
            writer,
            &ErrReply::new(
                ErrKind::UnknownJob,
                format!("job `{job}` is not in the journal"),
            )
            .to_line(),
        ),
        Some(payload) => write_line(writer, &ok_line(payload)),
    }
}

/// Finish every pending journaled job before the daemon starts
/// accepting connections. Completed stages replay as cache hits from
/// the job's persisted store; the recovered reply is journaled exactly
/// like a live one, so a client's later `job-status` (or idempotent
/// resubmit) sees bytes identical to an uninterrupted run.
fn recover_pending_jobs(
    journal: &Arc<JobJournal>,
    counters: &Arc<ServeCounters>,
    events: &Arc<Mutex<EventLog>>,
) {
    let degrade = |detail: String| {
        lock(events)
            .push(ServeEvent::DurabilityDegraded { detail });
    };
    for (job, state) in journal.pending_jobs() {
        let parser = match parser_for(&state.vendor) {
            Ok(parser) => parser,
            Err(e) => {
                degrade(format!(
                    "cannot recover job `{job}`: vendor `{}` has no parser: {e}",
                    state.vendor
                ));
                continue;
            }
        };
        let store_path = journal.job_store_path(&job);
        let mut store = if store_path.exists() {
            match ArtifactStore::load_lossy(&store_path) {
                Ok((store, diags)) => {
                    for d in diags {
                        degrade(d.message);
                    }
                    store
                }
                Err(e) => {
                    degrade(format!(
                        "job `{job}` store unusable, recomputing from journal: {e}"
                    ));
                    ArtifactStore::new()
                }
            }
        } else {
            ArtifactStore::new()
        };
        // Recovery runs off the request clock: the original deadline
        // bounded the interactive reply, which was already forfeited by
        // the crash.
        let outcome = run_submit_pipeline(
            parser.as_ref(),
            &state.vendor,
            &state.pages,
            &Deadline::unbounded(),
            &mut store,
            Some((journal.as_ref(), job.as_str())),
            |_| Ok(()),
        );
        match outcome {
            Ok(SubmitOutcome::Done(result)) => {
                match journal.append(&JournalRecord::Done {
                    job: job.clone(),
                    result,
                }) {
                    Ok(()) => {
                        journal.remove_job_store(&job);
                        counters.jobs_recovered.fetch_add(1, Ordering::Relaxed);
                        lock(events).push(ServeEvent::JobRecovered { job });
                    }
                    Err(e) => degrade(format!("recovered job `{job}` could not journal: {e}")),
                }
            }
            Ok(SubmitOutcome::Expired { stage, .. }) => {
                degrade(format!(
                    "recovery of job `{job}` expired at `{stage}` despite unbounded deadline"
                ));
            }
            Ok(SubmitOutcome::PersistFailed { stage, err }) => {
                degrade(format!("recovery of job `{job}` failed at `{stage}`: {err}"));
            }
            // The sink progress callback never errors.
            Err(e) => degrade(format!("recovery of job `{job}` i/o error: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_caps_and_counts_evictions() {
        let mut log = EventLog::default();
        for i in 0..EVENT_LOG_CAP + 10 {
            log.push(ServeEvent::Disconnect { partial: i + 1 });
        }
        assert_eq!(log.buf.len(), EVENT_LOG_CAP);
        assert_eq!(log.dropped, 10);
        // Oldest evicted, newest retained.
        assert_eq!(log.buf.front(), Some(&ServeEvent::Disconnect { partial: 11 }));
        let drained = log.take();
        assert_eq!(drained.len(), EVENT_LOG_CAP);
        assert_eq!(log.buf.len(), 0);
        assert_eq!(log.dropped, 10, "drop tally survives take()");
    }
}
