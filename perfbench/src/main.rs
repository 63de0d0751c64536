//! The repository benchmark: three workloads against an in-process
//! `nassim-serve` daemon over loopback.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_catalog --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! load, then replays the answered request stream in-process with spans
//! around each layer call and reports the per-layer metrics. Every reply
//! is checked against an in-process oracle; the last line of standard
//! output is one JSON object, and the exit code is non-zero when any
//! check fails. `METRICS.md` maps each per-layer metric to the end-to-end
//! metric it should move.

mod gen;
mod load;
mod oracle;
mod stats;
mod trace;

use gen::{Generator, Workload};
use nassim::ArtifactStore;
use nassim_datasets::catalog::Catalog;
use nassim_datasets::udmgen;
use nassim_mapper::RetrievalMode;
use nassim_serve::state::DEMO_EMBEDDER_ID;
use nassim_serve::{
    Admission, AdmissionConfig, DemoEmbedder, JobJournal, ServeConfig, ServeDaemon, ServeState,
    StateOptions, DEMO_SEED,
};
use serde::Value;
use stats::{mean, median, percentile};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Synthetic leaves of the `query_udm_scale` corpus (about 20k leaves
/// with the catalog's own).
const UDM_SCALE_SYNTHETIC: usize = 20_000;
/// The tail percentile every workload reports.
const TAIL_Q: f64 = 0.9;
/// Query requests replayed in the traced run (submissions: fewer, each
/// is a full pipeline run with fsyncs).
const REPLAY_QUERIES: usize = 400;
const REPLAY_SUBMISSIONS: usize = 12;
/// Distinct contexts scored for the recall of the fast retrieval paths.
const RECALL_QUERIES: usize = 200;
/// Where runs keep their journals and write their spans, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Removes the run's working directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process (the daemon included), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The `query_udm_scale` state: the shipped catalog, with the mapper
/// replaced by one over the large synthetic UDM, its IVF index built
/// through the store's ann cache exactly as `ServeState::build` does.
fn udm_scale_state() -> Result<ServeState, String> {
    let (base, mut store): (ServeState, ArtifactStore) =
        ServeState::build(&StateOptions::default()).map_err(|e| e.to_string())?;
    let udm = udmgen::generate(
        &Catalog::base(),
        &udmgen::UdmGenOptions {
            seed: DEMO_SEED,
            paraphrase_strength: 0.6,
            distractors: 8,
            synthetic_leaves: UDM_SCALE_SYNTHETIC,
        },
    );
    let mut mapper = store.mapper_dl(
        &udm.udm,
        Arc::new(DemoEmbedder::default()),
        DEMO_EMBEDDER_ID,
    );
    mapper.set_retrieval_mode_cached(RetrievalMode::Quantized, &mut store.ann);
    mapper.set_retrieval_mode(RetrievalMode::Exact);
    Ok(ServeState {
        mapper,
        ann_memo_hits: store.ann.hits,
        ann_memo_misses: store.ann.misses,
        ..base
    })
}

/// Cold start until the daemon accepts connections: state build, then
/// spawn (which opens the journal when one is configured).
fn start_daemon(workload: Workload, journal_dir: &Path) -> Result<ServeDaemon, String> {
    let state = match workload {
        Workload::QueryUdmScale => udm_scale_state()?,
        _ => {
            ServeState::build(&StateOptions::default())
                .map_err(|e| e.to_string())?
                .0
        }
    };
    let config = ServeConfig {
        journal_dir: (workload == Workload::SubmitJournaled).then(|| journal_dir.to_path_buf()),
        ..ServeConfig::default()
    };
    ServeDaemon::spawn(Arc::new(state), config).map_err(|e| e.to_string())
}

/// Cold starts per run; the median is reported. A default-state start
/// takes about 20 ms, and the first few of a process run slower than the
/// rest; the large-UDM one takes about a second.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::QueryUdmScale => 7,
        _ => 31,
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Obj(vec![
                            ("value".to_string(), Value::Num(*value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = workload.connections();
    // One generator thread drives each connection.
    if conns > nproc {
        return Err(format!(
            "{conns} connections need {conns} cores, this machine has {nproc}"
        ));
    }
    println!(
        "workload {} seed {} seconds {} trace {} | connections {conns} generator_threads {conns} nproc {nproc} | closed loop",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let generator = Generator::new(workload, args.seed);
    let work = WorkDir(PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;

    let mut setup_s = Vec::new();
    let mut daemon = None;
    for rep in 0..setup_reps(workload) {
        // Stop the previous daemon first, so each cold start runs alone.
        drop(daemon.take());
        let t = Instant::now();
        daemon = Some(start_daemon(
            workload,
            &work.0.join(format!("journal-{rep}")),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.ok_or("no daemon started")?;
    let state = Arc::clone(daemon.state());
    // The peak so far: the input pools and the largest cold start. What
    // `peak_rss_mb` adds beyond it is the serving load's own.
    let setup_peak_rss_mb = peak_rss_mb()?;

    let load = load::run(
        daemon.addr(),
        &generator,
        workload,
        Duration::from_secs(args.seconds),
    );
    let counters = daemon.counters();
    // Read before the oracle runs, so its in-process pipeline runs do not
    // count as the daemon's memory.
    let peak_rss_mb = peak_rss_mb()?;

    let submissions = oracle::expected_submissions(&generator, &load.records)?;
    let mut failed = oracle::check(&state, &generator, &load.records, &submissions);
    if workload == Workload::SubmitJournaled {
        failed.extend(oracle::check_job_status(
            daemon.addr(),
            args.seed,
            &generator,
            &load.records,
            &submissions,
        )?);
        failed.sort_unstable();
        failed.dedup();
    }
    for &i in failed.iter().take(5) {
        let r = &load.records[i];
        eprintln!(
            "check failed: connection {} request {}: {}",
            r.conn,
            r.index,
            r.error.as_deref().unwrap_or(if r.ok {
                "reply differs from the oracle"
            } else {
                "non-ok reply"
            })
        );
    }

    let measured: Vec<&load::Record> = load.records.iter().filter(|r| !r.warmup).collect();
    let warmup: Vec<&load::Record> = load.records.iter().filter(|r| r.warmup).collect();
    let ok: Vec<&load::Record> = measured.iter().copied().filter(|r| r.ok).collect();
    let total_ms: Vec<f64> = ok.iter().map(|r| r.total_ms).collect();
    let first_ms: Vec<f64> = ok.iter().map(|r| r.first_ms).collect();
    let input_keys: Vec<u64> = load
        .records
        .iter()
        .map(|r| generator.item(r.conn, r.index).input_key)
        .collect();
    let repeat = gen::repeat_share(&input_keys);
    println!(
        "requests {} (warm-up {} excluded from samples, p50 {:.3} ms), failed {}, error_rate {}",
        load.records.len(),
        warmup.len(),
        median(&warmup.iter().map(|r| r.total_ms).collect::<Vec<_>>()),
        failed.len(),
        failed.len() as f64 / load.records.len().max(1) as f64
    );
    println!("repeated inputs: {:.4} of requests", repeat);

    let mut metrics = Metrics(Vec::new());
    if !args.trace {
        let p50 = percentile(&total_ms, 0.5)?;
        let tail = percentile(&total_ms, TAIL_Q)?;
        let first = percentile(&first_ms, 0.5)?;
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("p50_ms", p50.value, "ms");
        metrics.push("p90_ms", tail.value, "ms");
        metrics.push("first_frame_ms", first.value, "ms");
        metrics.push("throughput_per_s", ok.len() as f64 / load.window_s, "1/s");
        metrics.push("peak_rss_mb", peak_rss_mb, "MB");
        println!("setup_s from {} cold starts: {:?}", setup_s.len(), setup_s);
        for (name, p) in [("p50_ms", p50), ("p90_ms", tail), ("first_frame_ms", first)] {
            println!("{name}: {} samples, {} beyond", p.samples, p.beyond);
        }
        println!(
            "throughput_per_s: {} ok replies in {:.3} s",
            ok.len(),
            load.window_s
        );
    } else {
        layer_metrics(
            args,
            &generator,
            &state,
            &load,
            &measured,
            repeat,
            &mut metrics,
        )?;
        metrics.push("load.setup_peak_rss_mb", setup_peak_rss_mb, "MB");
        metrics.push("serve.served", counters.served as f64, "count");
        metrics.push(
            "serve.shed_overload",
            counters.shed_overload as f64,
            "count",
        );
        metrics.push(
            "serve.deadline_expired",
            counters.deadline_expired as f64,
            "count",
        );
        metrics.push("serve.malformed", counters.malformed as f64, "count");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
    }
    drop(state);
    drop(daemon);
    Ok((failed.is_empty(), load.records.len(), failed.len(), metrics))
}

/// The traced run: replay the first answered requests in-process, each
/// once untraced and once traced, and attribute each request's round trip
/// to layers.
fn layer_metrics(
    args: &Args,
    generator: &Generator,
    state: &ServeState,
    load: &load::LoadRun,
    measured: &[&load::Record],
    repeat: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let workload = args.workload;
    let cap = match workload {
        Workload::SubmitJournaled => REPLAY_SUBMISSIONS,
        _ => REPLAY_QUERIES,
    };
    let replayed: Vec<&load::Record> = measured
        .iter()
        .copied()
        .filter(|r| r.ok)
        .take(cap)
        .collect();
    if replayed.is_empty() {
        return Err("no answered request to replay".to_string());
    }
    let admission = Admission::new(AdmissionConfig::default());
    let replay_dir = PathBuf::from(OUT_DIR).join(format!("replay-{}", std::process::id()));
    let _cleanup = WorkDir(replay_dir.clone());
    let open = |name: &str| {
        JobJournal::open(&replay_dir.join(name))
            .map(|(j, _)| j)
            .map_err(|e| e.to_string())
    };
    let journals = [open("untraced")?, open("traced")?];
    let mut tracers = [trace::Tracer::new(false), trace::Tracer::new(true)];
    let mut elapsed_s = [0.0f64; 2];
    let mut counts = Vec::new();
    let mut pool_jobs = Vec::new();
    for (n, r) in replayed.iter().enumerate() {
        let item = generator.item(r.conn, r.index);
        // Each request runs untraced and traced, in alternating order, so
        // warm caches favour neither side of the overhead comparison.
        let order = if n % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let t = &mut tracers[side];
            let pool_before = nassim_exec::pool_stats().jobs;
            let start = Instant::now();
            t.begin_request(n as u64);
            let frames = if item.manual.is_some() {
                let out = trace::replay_submit(
                    t,
                    Some(&admission),
                    &item.request,
                    Some(&journals[side]),
                )?;
                if side == 1 {
                    counts.push(out.counts);
                }
                out.frames
            } else {
                vec![trace::replay_query(t, state, &admission, &item.request)?]
            };
            t.end_request();
            elapsed_s[side] += start.elapsed().as_secs_f64();
            if side == 1 {
                pool_jobs.push((nassim_exec::pool_stats().jobs - pool_before) as f64);
            }
            if frames
                .iter()
                .map(|f| load::frame_hash(f))
                .ne(r.frames.iter().copied())
            {
                return Err(format!(
                    "replay of connection {} request {} diverged from the daemon's reply",
                    r.conn, r.index
                ));
            }
        }
    }
    let [untraced_s, traced_s] = elapsed_s;
    let [_, tracer] = tracers;

    let n = replayed.len() as f64;
    let by_name = tracer.by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |&(ms, _)| ms);
    // Self time per call in ms; 0 for a layer the workload never calls.
    let per_call = |name: &str| by_name.get(name).map_or(0.0, |&(ms, c)| ms / c as f64);
    // Round trip minus the same request's in-process layer time: what
    // transport, framing and scheduling add, to the final and to the
    // first reply frame.
    let server_ms = tracer.server_ms_by_request();
    let server = |i: usize| server_ms.get(&(i as u64)).copied().unwrap_or_default();
    let wire: Vec<f64> = replayed
        .iter()
        .enumerate()
        .map(|(i, r)| r.total_ms - server(i).1)
        .collect();
    let first_wire: Vec<f64> = replayed
        .iter()
        .enumerate()
        .map(|(i, r)| r.first_ms - server(i).0)
        .collect();
    let server_total: f64 = server_ms.values().map(|s| s.1).sum();
    let rt_total: f64 = replayed.iter().map(|r| r.total_ms).sum();

    metrics.push("serve.wire_ms", median(&wire), "ms");
    metrics.push("serve.first_frame_wire_ms", median(&first_wire), "ms");
    metrics.push(
        "trace.unaccounted_share",
        1.0 - server_total / rt_total,
        "share",
    );
    metrics.push("trace.overhead_share", traced_s / untraced_s - 1.0, "share");
    for name in [
        "request_to_line",
        "request_parse",
        "reply_to_line",
        "reply_parse",
    ] {
        metrics.push(
            format!("protocol.{name}_us"),
            total(&format!("protocol.{name}")) * 1e3 / n,
            "us",
        );
    }
    metrics.push(
        "protocol.request_bytes",
        mean(
            &replayed
                .iter()
                .map(|r| r.request_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    metrics.push(
        "protocol.reply_bytes",
        mean(
            &replayed
                .iter()
                .map(|r| r.reply_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    metrics.push(
        "admission.admit_us",
        per_call("admission.admit") * 1e3,
        "us",
    );

    metrics.push("mapper.prepare_us", per_call("mapper.prepare") * 1e3, "us");
    for mode in ["exact", "quantized", "ann"] {
        metrics.push(
            format!("mapper.scan_us.{mode}"),
            per_call(&format!("mapper.scan.{mode}")) * 1e3,
            "us",
        );
    }
    let (quantized_recall, ann_recall) = recall(generator, state, &replayed);
    metrics.push("mapper.quantized_recall_at_10", quantized_recall, "share");
    metrics.push("mapper.ann_recall_at_10", ann_recall, "share");
    let ann = state
        .mapper_for(Some(RetrievalMode::Ann { probes: 0 }))
        .retrieval_stats();
    metrics.push("mapper.index_build_ms", ann.index_build_ms, "ms");
    metrics.push("mapper.leaf_count", ann.leaf_count as f64, "count");
    metrics.push("mapper.nlist", ann.nlist as f64, "count");
    metrics.push("mapper.probes", ann.probes as f64, "count");

    let per_submission =
        |f: fn(&trace::SubmitCounts) -> f64| mean(&counts.iter().map(f).collect::<Vec<_>>());
    for stage in trace::STAGES {
        let span = format!("core.{stage}_stage");
        metrics.push(format!("{span}_ms"), per_call(&span), "ms");
    }
    metrics.push(
        "core.pages_parsed",
        per_submission(|c| c.pages_parsed as f64),
        "count",
    );
    metrics.push(
        "core.pages_quarantined",
        per_submission(|c| c.pages_quarantined as f64),
        "count",
    );
    metrics.push(
        "core.clis_checked",
        per_submission(|c| c.clis_checked as f64),
        "count",
    );
    metrics.push(
        "core.vdm_nodes",
        per_submission(|c| c.vdm_nodes as f64),
        "count",
    );
    metrics.push(
        "core.diagnostics",
        per_submission(|c| c.diagnostics as f64),
        "count",
    );
    metrics.push(
        "durability.store_save_ms",
        per_call("durability.store_save"),
        "ms",
    );
    metrics.push(
        "durability.store_bytes",
        per_submission(|c| {
            if c.saves == 0 {
                0.0
            } else {
                c.store_bytes as f64 / c.saves as f64
            }
        }),
        "bytes",
    );
    metrics.push(
        "durability.journal_append_ms",
        per_call("durability.journal_append"),
        "ms",
    );
    metrics.push(
        "durability.job_lookup_ms",
        per_call("durability.job_lookup"),
        "ms",
    );
    metrics.push(
        "durability.saves_per_job",
        per_submission(|c| c.saves as f64),
        "count",
    );
    metrics.push(
        "durability.appends_per_job",
        per_submission(|c| c.appends as f64),
        "count",
    );
    metrics.push("exec.pool_jobs", mean(&pool_jobs), "count");

    metrics.push("load.repeat_share", repeat, "share");
    metrics.push(
        "load.warmup_requests",
        load.records.iter().filter(|r| r.warmup).count() as f64,
        "count",
    );
    metrics.push(
        "load.samples",
        measured.iter().filter(|r| r.ok).count() as f64,
        "count",
    );
    metrics.push("load.replayed", n, "count");

    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.json", workload.name(), args.seed));
    let json = serde_json::to_string(&tracer.to_json()).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!(
        "traced replay: {} requests, {} spans written to {}; untraced {:.3} s, traced {:.3} s",
        replayed.len(),
        tracer.spans.len(),
        path.display(),
        untraced_s,
        traced_s
    );
    Ok(())
}

/// Mean recall@10 of the quantized and ANN paths against the exact
/// ranking, over the distinct contexts among the replayed queries; 0 when
/// the workload sends no queries.
fn recall(generator: &Generator, state: &ServeState, replayed: &[&load::Record]) -> (f64, f64) {
    let mut seen = std::collections::HashSet::new();
    let contexts: Vec<nassim_mapper::Context> = replayed
        .iter()
        .map(|r| generator.item(r.conn, r.index))
        .filter(|item| seen.insert(item.input_key))
        .filter_map(|item| match item.request {
            nassim_serve::Request::QueryMapping { sequences, .. } => {
                Some(nassim_mapper::Context { sequences })
            }
            _ => None,
        })
        .take(RECALL_QUERIES)
        .collect();
    if contexts.is_empty() {
        return (0.0, 0.0);
    }
    let exact = state.mapper_for(Some(RetrievalMode::Exact));
    let wanted: Vec<_> = contexts
        .iter()
        .map(|ctx| exact.recommend(ctx, gen::K))
        .collect();
    let score = |mode: RetrievalMode| {
        let fast = state.mapper_for(Some(mode));
        let per: Vec<f64> = contexts
            .iter()
            .zip(&wanted)
            .map(|(ctx, want)| {
                let got = fast.recommend(ctx, gen::K);
                let hits = got
                    .iter()
                    .filter(|(id, _)| want.iter().any(|(w, _)| w == id))
                    .count();
                hits as f64 / want.len().max(1) as f64
            })
            .collect();
        mean(&per)
    };
    (
        score(RetrievalMode::Quantized),
        score(RetrievalMode::Ann { probes: 0 }),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <query_catalog|query_udm_scale|submit_journaled> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            let result = Value::Obj(vec![
                ("correct".to_string(), Value::Bool(correct)),
                ("attempted".to_string(), Value::Num(attempted as f64)),
                ("failed".to_string(), Value::Num(failed as f64)),
                ("metrics".to_string(), metrics.to_json()),
            ]);
            match serde_json::to_string(&result) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("perfbench: {e:?}");
                    std::process::exit(2);
                }
            }
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
