//! Spans around the calls into each layer, and the in-process replay
//! that records them.
//!
//! The replay walks the same request stream the daemon answered and calls
//! the public functions the daemon's request path calls, in its order:
//! protocol framing, admission, the mapper or the staged core pipeline,
//! and the durability calls of a journaled job. Spans live in memory and
//! are written out once the run ends.

use nassim::ArtifactStore;
use nassim_html::IngestBudget;
use nassim_mapper::{Context, RetrievalMode};
use nassim_parser::parser_for;
use nassim_serve::protocol::{ok_line, progress_line};
use nassim_serve::{Admission, Deadline, JobJournal, JournalRecord, Reply, Request, ServeState};
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans whose work happens in the client, outside the round trip the
/// load phase times (the request line is built before the clock starts
/// and the reply is parsed after it stops).
pub const CLIENT_SPANS: [&str; 2] = ["protocol.request_to_line", "protocol.reply_parse"];

/// Name of the root span of one replayed request.
pub const ROOT: &str = "request";
/// Span serialising one reply frame.
const REPLY_TO_LINE: &str = "protocol.reply_to_line";

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder. Disabled, it runs the same calls and records nothing,
/// which is what the overhead comparison needs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    root: Option<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
        if self.enabled {
            self.root = Some(self.spans.len());
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: ROOT,
                start_ns,
                end_ns: start_ns,
                parent: None,
                request,
            });
        }
    }

    pub fn end_request(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name` under the current request.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            request: self.request,
        });
        out
    }

    /// Self time of every span in ns: its duration minus the part its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Server-side layer self time per request, in ms, as (until the
    /// first reply frame is serialised, until the final one): what the
    /// daemon's request path spends inside the layers, excluding client
    /// spans and the replay's own glue (the root's self time). Leaf spans
    /// are recorded in completion order, so "until the first frame" is
    /// every server span up to the request's first `reply_to_line`.
    pub fn server_ms_by_request(&self) -> BTreeMap<u64, (f64, f64)> {
        let mut out: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        let mut first_done = std::collections::HashSet::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = out.entry(s.request).or_default();
            if s.name == ROOT || CLIENT_SPANS.contains(&s.name) {
                continue;
            }
            let ms = ns as f64 / 1e6;
            entry.1 += ms;
            if !first_done.contains(&s.request) {
                entry.0 += ms;
                if s.name == REPLY_TO_LINE {
                    first_done.insert(s.request);
                }
            }
        }
        out
    }

    /// Total self time and call count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += ns as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".to_string(), Value::Str(s.name.to_string())),
                        ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("request".to_string(), Value::Num(s.request as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// The `ok` line the daemon answers a `query-mapping` with, built from a
/// ranking.
pub fn query_reply_line(
    mapper: &nassim_mapper::Mapper,
    ranked: &[(nassim_corpus::UdmNodeId, f32)],
) -> String {
    let matches = ranked
        .iter()
        .map(|&(leaf, score)| {
            Value::Obj(vec![
                ("path".to_string(), Value::Str(mapper.udm().path_of(leaf))),
                ("score".to_string(), Value::Num(score as f64)),
            ])
        })
        .collect();
    ok_line(Value::Obj(vec![(
        "matches".to_string(),
        Value::Arr(matches),
    )]))
}

fn scan_span(mode: Option<RetrievalMode>) -> &'static str {
    match mode.unwrap_or_default() {
        RetrievalMode::Exact => "mapper.scan.exact",
        RetrievalMode::Quantized => "mapper.scan.quantized",
        RetrievalMode::Ann { .. } => "mapper.scan.ann",
    }
}

/// Replay one `query-mapping` request; returns the reply line.
pub fn replay_query(
    t: &mut Tracer,
    state: &ServeState,
    admission: &Admission,
    request: &Request,
) -> Result<String, String> {
    let line = t.time("protocol.request_to_line", || request.to_line());
    let parsed = t.time("protocol.request_parse", || Request::parse(&line));
    let Ok(Request::QueryMapping {
        sequences,
        k,
        mode,
        deadline_ms,
    }) = parsed
    else {
        return Err("replayed query did not parse back".to_string());
    };
    let deadline = Deadline::started(deadline_ms);
    let permit = t
        .time("admission.admit", || admission.admit(&deadline))
        .map_err(|reason| format!("replay admission refused: {reason:?}"))?;
    let ctx = Context { sequences };
    let mapper = t.time("mapper.select", || state.mapper_for(mode));
    let prepared = t.time("mapper.prepare", || mapper.prepare_queries(&[&ctx]));
    let query = prepared.first().ok_or("prepare_queries returned nothing")?;
    let ranked = t.time(scan_span(mode), || mapper.recommend_prepared(query, k));
    let reply = t.time(REPLY_TO_LINE, || query_reply_line(&mapper, &ranked));
    drop(permit);
    let parsed = t.time("protocol.reply_parse", || Reply::parse(&reply));
    match parsed {
        Ok(Reply::Ok(_)) => Ok(reply),
        _ => Err("replayed reply is not ok".to_string()),
    }
}

/// Stage names of `submit-manual`, in the order the daemon streams them.
pub const STAGES: [&str; 4] = ["parse", "syntax", "hierarchy", "build"];

/// Per-submission counts the replay reads off the staged pipeline.
#[derive(Default, Clone, Copy)]
pub struct SubmitCounts {
    pub pages_parsed: usize,
    pub pages_quarantined: usize,
    pub clis_checked: usize,
    pub vdm_nodes: usize,
    pub diagnostics: usize,
    pub saves: usize,
    pub appends: usize,
    pub store_bytes: u64,
}

/// The frames a `submit-manual` is answered with: one progress line per
/// stage, then the final `ok` line.
pub struct SubmitReplay {
    pub frames: Vec<String>,
    pub payload: Value,
    pub counts: SubmitCounts,
}

/// Replay one `submit-manual` through the staged pipeline on a fresh
/// store. With `journal`, the job is journaled the way the daemon does
/// it: intent record first, then per stage a store save and a stage
/// record, then the `done` record and the store's removal.
pub fn replay_submit(
    t: &mut Tracer,
    admission: Option<&Admission>,
    request: &Request,
    journal: Option<&JobJournal>,
) -> Result<SubmitReplay, String> {
    let line = t.time("protocol.request_to_line", || request.to_line());
    let parsed = t.time("protocol.request_parse", || Request::parse(&line));
    let Ok(Request::SubmitManual {
        vendor,
        pages,
        deadline_ms,
        job,
    }) = parsed
    else {
        return Err("replayed submission did not parse back".to_string());
    };
    let deadline = Deadline::started(deadline_ms);
    let permit = match admission {
        Some(a) => Some(
            t.time("admission.admit", || a.admit(&deadline))
                .map_err(|reason| format!("replay admission refused: {reason:?}"))?,
        ),
        None => None,
    };
    let parser = parser_for(&vendor).map_err(|e| e.to_string())?;
    let mut counts = SubmitCounts::default();
    let journal = match (journal, &job) {
        (Some(j), Some(id)) => Some((j, id.as_str())),
        _ => None,
    };
    if let Some((j, id)) = journal {
        if t.time("durability.job_lookup", || j.job(id)).is_some() {
            return Err(format!("replay job `{id}` is already journaled"));
        }
        t.time("durability.journal_append", || {
            j.append(&JournalRecord::Submitted {
                job: id.to_string(),
                vendor: vendor.clone(),
                deadline_ms,
                pages: pages.to_vec(),
            })
        })
        .map_err(|e| e.to_string())?;
        counts.appends += 1;
    }
    let mut store = ArtifactStore::new();
    let budget = IngestBudget::default();
    let refs: Vec<(&str, &str)> = pages
        .iter()
        .map(|(u, h)| (u.as_str(), h.as_str()))
        .collect();
    let mut frames = Vec::with_capacity(STAGES.len() + 1);
    let persist = |t: &mut Tracer,
                   store: &ArtifactStore,
                   stage: &str,
                   key: u64,
                   counts: &mut SubmitCounts|
     -> Result<(), String> {
        let Some((j, id)) = journal else {
            return Ok(());
        };
        let durable = t.time("durability.job_lookup", || {
            j.job(id).is_some_and(|s| s.has_stage(stage))
        });
        if durable {
            return Ok(());
        }
        let path = j.job_store_path(id);
        t.time("durability.store_save", || store.save(&path))
            .map_err(|e| e.to_string())?;
        counts.saves += 1;
        counts.store_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        t.time("durability.journal_append", || {
            j.append(&JournalRecord::Stage {
                job: id.to_string(),
                stage: stage.to_string(),
                key: format!("{key:016x}"),
            })
        })
        .map_err(|e| e.to_string())?;
        counts.appends += 1;
        Ok(())
    };
    let mut progress = |t: &mut Tracer, stage: &str| {
        let line = t.time(REPLY_TO_LINE, || {
            progress_line(Value::Obj(vec![(
                "stage".to_string(),
                Value::Str(stage.to_string()),
            )]))
        });
        frames.push(line);
    };

    progress(t, STAGES[0]);
    let (parse, page_keys) = t
        .time("core.parse_stage", || {
            store.parse_stage(parser.as_ref(), refs, &budget)
        })
        .map_err(|e| e.to_string())?;
    let ckey = nassim::corpus_key(&page_keys);
    persist(t, &store, STAGES[0], ckey, &mut counts)?;
    progress(t, STAGES[1]);
    let syntax = t.time("core.syntax_stage", || store.syntax_stage(&parse));
    persist(t, &store, STAGES[1], ckey, &mut counts)?;
    progress(t, STAGES[2]);
    let derivation = t.time("core.hierarchy_stage", || {
        store.hierarchy_stage(&parse, &page_keys)
    });
    persist(t, &store, STAGES[2], ckey, &mut counts)?;
    progress(t, STAGES[3]);
    let build = t.time("core.build_stage", || {
        store.build_stage(&vendor, &parse, &page_keys, &derivation)
    });
    persist(t, &store, STAGES[3], ckey, &mut counts)?;

    counts.pages_parsed = parse.pages.len();
    counts.pages_quarantined = parse.quarantined.len();
    counts.clis_checked = syntax.total_clis;
    counts.vdm_nodes = build.vdm.walk().len();
    counts.diagnostics = parse.diagnostics.len() + build.diagnostics(&parse.pages).len();
    let num = |n: usize| Value::Num(n as f64);
    let payload = Value::Obj(vec![
        ("vendor".to_string(), Value::Str(vendor.clone())),
        ("pages".to_string(), num(pages.len())),
        ("parsed_pages".to_string(), num(counts.pages_parsed)),
        ("quarantined".to_string(), num(counts.pages_quarantined)),
        ("nodes".to_string(), num(counts.vdm_nodes)),
        ("syntax_checked".to_string(), num(counts.clis_checked)),
        ("syntax_invalid".to_string(), num(syntax.invalid_count())),
        (
            "unplaced_pages".to_string(),
            num(build.unplaced_pages.len()),
        ),
        ("diagnostics".to_string(), num(counts.diagnostics)),
    ]);
    if let Some((j, id)) = journal {
        t.time("durability.journal_append", || {
            j.append(&JournalRecord::Done {
                job: id.to_string(),
                result: payload.clone(),
            })
        })
        .map_err(|e| e.to_string())?;
        counts.appends += 1;
        t.time("durability.store_remove", || j.remove_job_store(id));
    }
    let final_line = t.time(REPLY_TO_LINE, || ok_line(payload.clone()));
    frames.push(final_line);
    drop(permit);
    for frame in &frames {
        t.time("protocol.reply_parse", || Reply::parse(frame))
            .map_err(|e| e.to_string())?;
    }
    Ok(SubmitReplay {
        frames,
        payload,
        counts,
    })
}
