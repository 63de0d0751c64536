//! Stage 2 — model hierarchy derivation and validation (§5.2).
//!
//! The derivation exploits `Examples` fields: each snippet shows an
//! *instantiated* version of the page's CLI under its parent CLI
//! instances, with indentation carrying nesting. For every snippet we:
//!
//! 1. confirm the innermost line instantiates the page's own template
//!    (CGM instance–template matching, Algorithm 1);
//! 2. track back by prefix indentation to the parent CLI instance;
//! 3. search all corpora for templates matching the parent instance;
//! 4. cast a vote: *"view V (the page's working view) is entered by
//!    template T"*.
//!
//! Votes are aggregated per view with majority voting; views with
//! conflicting evidence — the Figure-7 shared-snippet problem — or with
//! no usable evidence are flagged ambiguous, each with its candidate
//! openers and example provenance, "so that NetOps can review them later".
//!
//! Manuals that state hierarchy explicitly (norsk context paths +
//! `Enters:` tree sections) bypass derivation: their evidence enters as
//! authoritative votes.

use nassim_cgm::{matching::is_cli_match, CliGraph};
use nassim_corpus::{Fnv1a, RenderedSection, SectionMemo};
use nassim_parser::ParsedPage;
use nassim_syntax::parse_template;
use serde::{DeError, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel opener index meaning "the view is a root view" (the snippet
/// showed the command at indentation 0 with no parent line).
pub const ROOT_OPENER: usize = usize::MAX;

/// Why a view was flagged ambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmbiguityReason {
    /// Distinct openers received comparable vote counts.
    ConflictingEvidence,
    /// The view appears in `ParentViews` but no snippet could be
    /// associated with it.
    NoEvidence,
}

/// An ambiguous view, recorded for expert review.
#[derive(Debug, Clone)]
pub struct AmbiguousView {
    /// Vendor view name, e.g. `VPN instance MSDP view`.
    pub view: String,
    pub reason: AmbiguityReason,
    /// Candidate opener page indices with their vote counts.
    pub candidates: Vec<(usize, usize)>,
}

/// Derivation statistics (Table 4 rows).
#[derive(Debug, Clone, Default)]
pub struct DerivationStats {
    /// Snippets inspected.
    pub example_snippets: usize,
    /// Votes successfully cast.
    pub votes_cast: usize,
    /// Snippets whose innermost line did not match the page's template
    /// (manual defect or parse loss).
    pub self_match_failures: usize,
    /// Wall-clock time of CGM construction for all corpora.
    pub cgm_build_time: Duration,
    /// Wall-clock time of derivation proper.
    pub derivation_time: Duration,
}

/// The derivation result.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// view name → winning opener: page index into the input slice, or
    /// [`ROOT_OPENER`] for root views.
    pub openers: BTreeMap<String, usize>,
    /// Full vote tally per view (for certainty quantification).
    pub votes: BTreeMap<String, BTreeMap<usize, usize>>,
    /// Views flagged for expert review.
    pub ambiguous: Vec<AmbiguousView>,
    /// The root view name (most root-voted), if any.
    pub root_view: Option<String>,
    pub stats: DerivationStats,
}

impl Derivation {
    /// Number of ambiguous views (Table 4 row).
    pub fn ambiguous_count(&self) -> usize {
        self.ambiguous.len()
    }

    /// Every ambiguous view as a `hierarchy`-stage warning diagnostic,
    /// with candidate opener pages (URL × votes) named for expert review.
    pub fn diagnostics(&self, pages: &[ParsedPage]) -> Vec<nassim_diag::Diagnostic> {
        self.ambiguous
            .iter()
            .map(|a| a.to_diagnostic(pages))
            .collect()
    }
}

impl AmbiguousView {
    /// The expert-review warning for this view. The span points at the
    /// leading candidate opener's page when there is one.
    pub fn to_diagnostic(&self, pages: &[ParsedPage]) -> nassim_diag::Diagnostic {
        let url_of = |pi: usize| {
            pages
                .get(pi)
                .map(|p| p.url.as_str())
                .unwrap_or("<unknown page>")
        };
        let message = match self.reason {
            AmbiguityReason::NoEvidence => format!(
                "view `{}` has no usable hierarchy evidence (no snippet or context path)",
                self.view
            ),
            AmbiguityReason::ConflictingEvidence => {
                let candidates: Vec<String> = self
                    .candidates
                    .iter()
                    .map(|&(pi, votes)| format!("{} ({votes} votes)", url_of(pi)))
                    .collect();
                format!(
                    "view `{}` has conflicting opener evidence: {}",
                    self.view,
                    candidates.join(", ")
                )
            }
        };
        let mut d =
            nassim_diag::Diagnostic::warning(nassim_diag::Stage::Hierarchy, message);
        if let Some(&(pi, _)) = self.candidates.first() {
            d = d.with_span(nassim_diag::SourceSpan::point(url_of(pi), 0));
        }
        d
    }
}

/// One page's compiled template graphs plus its head-keyword bucket
/// entries — an immutable artifact that is a pure function of the
/// page's `CLIs` list ([`graph_key`]), so the artifact store can share
/// it across incremental runs. Persisted by its *source* rather than
/// its shape: the store serializes only the CLI template list and
/// recompiles on load ([`compile_graphs`] is deterministic), so the
/// encoded form stays small and a loaded graph can never disagree with
/// its key.
pub struct PageGraphs {
    /// cli index → graph; `None` for templates that failed stage-1
    /// parsing (they can never match an instance).
    pub graphs: Vec<Option<CliGraph>>,
    /// (cli index, head keyword) for each parseable template; `None`
    /// head means headless (starts with a group).
    buckets: Vec<(usize, Option<String>)>,
    /// The CLI forms this artifact was compiled from — its serialized
    /// representation and the preimage of [`graph_key`].
    clis: Vec<String>,
}

/// [`graph_key`] over a bare CLI-form list (what [`PageGraphs`]
/// persistence stores and verifies against).
pub fn graph_key_of(clis: &[String]) -> u64 {
    let mut h = Fnv1a::new();
    for cli in clis {
        h.write_field(cli);
    }
    h.finish()
}

/// Content key of one page's compiled-graph artifact: FNV-1a over its
/// CLI forms, length-framed. The URL deliberately does not participate:
/// two pages with identical `CLIs` compile to identical graphs.
pub fn graph_key(page: &ParsedPage) -> u64 {
    graph_key_of(&page.entry.clis)
}

/// Compile a CLI-form list into a [`PageGraphs`] artifact — the pure
/// function behind both [`compile_page_graphs`] and store loads.
pub fn compile_graphs(clis: &[String]) -> PageGraphs {
    let mut graphs = Vec::new();
    let mut buckets = Vec::new();
    for (ci, cli) in clis.iter().enumerate() {
        match parse_template(cli) {
            Ok(struc) => {
                buckets.push((ci, struc.head_keyword().map(str::to_string)));
                graphs.push(Some(CliGraph::build(&struc)));
            }
            // `None` keeps (page, cli) indexing aligned.
            Err(_) => graphs.push(None),
        }
    }
    PageGraphs {
        graphs,
        buckets,
        clis: clis.to_vec(),
    }
}

/// Compile one page's parseable CLI forms into a [`PageGraphs`] artifact.
pub fn compile_page_graphs(page: &ParsedPage) -> PageGraphs {
    compile_graphs(&page.entry.clis)
}

/// In-memory cache of per-page [`PageGraphs`] artifacts, keyed by
/// [`graph_key`]. The hit/miss counters make artifact reuse observable
/// to the differential tests and the incremental bench.
#[derive(Clone, Default)]
pub struct GraphCache {
    entries: HashMap<u64, Arc<PageGraphs>>,
    /// The persisted section's text, cleared on every insert.
    memo: SectionMemo,
    pub hits: usize,
    pub misses: usize,
}

impl GraphCache {
    pub fn new() -> GraphCache {
        GraphCache::default()
    }

    /// Number of distinct artifacts held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn insert(&mut self, key: u64, graphs: Arc<PageGraphs>) {
        self.entries.insert(key, graphs);
        self.memo.clear();
    }

    /// The persisted section: [`GraphCache::to_value`] rendered to text
    /// by `render`, memoized until the next insert.
    pub fn rendered_section<E>(
        &self,
        render: impl FnOnce(&Value) -> Result<String, E>,
    ) -> Result<Arc<RenderedSection>, E> {
        self.memo.get_or_render(|| render(&self.to_value()))
    }

    /// Serialize for the artifact store: each entry is its CLI template
    /// list under a fixed-width hex key, sorted for stable bytes. The
    /// compiled graphs themselves are never encoded — loads recompile
    /// them ([`compile_graphs`]), which is cheap and cannot drift.
    /// Hit/miss counters are deliberately not persisted.
    pub fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(k, v)| {
                (
                    format!("{k:016x}"),
                    Value::Arr(v.clis.iter().map(|c| Value::Str(c.clone())).collect()),
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(vec![("entries".to_string(), Value::Obj(entries))])
    }

    fn entry_from_value(key: &str, val: &Value) -> Result<(u64, PageGraphs), DeError> {
        let k = u64::from_str_radix(key, 16)
            .map_err(|e| DeError::new(format!("graph key `{key}` is not hex: {e}")))?;
        let Value::Arr(items) = val else {
            return Err(DeError::new(format!(
                "graph entry `{key}` is not a CLI list"
            )));
        };
        let mut clis = Vec::with_capacity(items.len());
        for item in items {
            let Value::Str(cli) = item else {
                return Err(DeError::new(format!(
                    "graph entry `{key}` holds a non-string CLI"
                )));
            };
            clis.push(cli.clone());
        }
        // The key must be the FNV of the stored CLI list: a swapped or
        // altered entry is detected here even when the section checksum
        // was forged along with it.
        if graph_key_of(&clis) != k {
            return Err(DeError::new(format!(
                "graph entry `{key}` does not hash to its key"
            )));
        }
        Ok((k, compile_graphs(&clis)))
    }

    /// Strict inverse of [`GraphCache::to_value`]: any malformed entry
    /// fails the whole load.
    pub fn from_value(v: &Value) -> Result<GraphCache, DeError> {
        let Some(Value::Obj(entries)) = v.get("entries") else {
            return Err(DeError::new("missing graph `entries` object".to_string()));
        };
        let mut cache = GraphCache::new();
        for (key, val) in entries {
            let (k, graphs) = GraphCache::entry_from_value(key, val)?;
            cache.insert(k, Arc::new(graphs));
        }
        Ok(cache)
    }

    /// Per-entry lossy inverse: malformed entries are skipped and
    /// reported; every valid entry still loads.
    pub fn from_value_lossy(v: &Value) -> (GraphCache, Vec<String>) {
        let mut errors = Vec::new();
        let Some(Value::Obj(entries)) = v.get("entries") else {
            errors.push("missing graph `entries` object".to_string());
            return (GraphCache::new(), errors);
        };
        let mut cache = GraphCache::new();
        for (key, val) in entries {
            match GraphCache::entry_from_value(key, val) {
                Ok((k, graphs)) => {
                    cache.insert(k, Arc::new(graphs));
                }
                Err(e) => errors.push(e.0),
            }
        }
        (cache, errors)
    }
}

/// Compiled template graphs for a whole corpus, bucketed for fast
/// lookup. Per-page graphs are [`Arc`]-shared with the [`GraphCache`].
pub struct CorpusGraphs {
    /// page index → that page's compiled graphs.
    pub graphs: Vec<Arc<PageGraphs>>,
    /// head keyword → (page, cli) pairs whose template starts with it.
    head_index: BTreeMap<String, Vec<(usize, usize)>>,
    /// Templates with no leading keyword (start with a group) — always
    /// candidates.
    headless: Vec<(usize, usize)>,
}

/// Pages per worker chunk when compiling template graphs: one page's
/// graphs build in tens of microseconds, so a chunk bundles enough of
/// them to amortise the fan-out.
const CGM_MIN_CHUNK: usize = 64;

/// Pages per worker chunk for evidence collection: snippet matching is
/// heavier than graph compilation but still cheap per page.
const EVIDENCE_MIN_CHUNK: usize = 32;

impl CorpusGraphs {
    /// Compile every parseable CLI form of every page. Invalid templates
    /// (stage-1 failures) are skipped — they cannot match anything.
    ///
    /// Graph compilation fans out per page; the head/headless buckets are
    /// filled back in page order, so the index layout matches a serial
    /// build exactly.
    pub fn build(pages: &[ParsedPage]) -> CorpusGraphs {
        let per_page: Vec<Arc<PageGraphs>> =
            nassim_exec::par_map_chunked(pages, CGM_MIN_CHUNK, |page| {
                Arc::new(compile_page_graphs(page))
            });
        CorpusGraphs::assemble(per_page)
    }

    /// [`CorpusGraphs::build`] reusing cached per-page artifacts: pages
    /// whose CLI set is already in `cache` skip compilation entirely;
    /// misses compile in one fan-out and are inserted for next time.
    /// The assembled index is identical to an uncached build.
    pub fn build_cached(pages: &[ParsedPage], cache: &mut GraphCache) -> CorpusGraphs {
        let keys: Vec<u64> = pages.iter().map(graph_key).collect();
        let mut per_page: Vec<Option<Arc<PageGraphs>>> =
            keys.iter().map(|k| cache.entries.get(k).cloned()).collect();
        let missing: Vec<usize> = per_page
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| i)
            .collect();
        cache.hits += pages.len() - missing.len();
        cache.misses += missing.len();
        let compiled: Vec<Arc<PageGraphs>> =
            nassim_exec::par_map_chunked(&missing, CGM_MIN_CHUNK, |&i| {
                Arc::new(compile_page_graphs(&pages[i]))
            });
        for (&i, artifact) in missing.iter().zip(compiled) {
            cache.insert(keys[i], artifact.clone());
            per_page[i] = Some(artifact);
        }
        let per_page = per_page
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.unwrap_or_else(|| Arc::new(compile_page_graphs(&pages[i]))))
            .collect();
        CorpusGraphs::assemble(per_page)
    }

    /// Fold per-page artifacts (in page order) into the bucketed index;
    /// the layout matches a serial build exactly.
    fn assemble(per_page: Vec<Arc<PageGraphs>>) -> CorpusGraphs {
        let mut head_index: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut headless = Vec::new();
        for (pi, page) in per_page.iter().enumerate() {
            for (ci, head) in &page.buckets {
                match head {
                    Some(head) => head_index.entry(head.clone()).or_default().push((pi, *ci)),
                    None => headless.push((pi, *ci)),
                }
            }
        }
        CorpusGraphs {
            graphs: per_page,
            head_index,
            headless,
        }
    }

    /// Pages whose templates could match `instance` (bucketed by its
    /// first token, plus all headless templates).
    pub fn candidates(&self, instance: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if let Some(first) = instance.split_whitespace().next() {
            if let Some(bucket) = self.head_index.get(first) {
                out.extend_from_slice(bucket);
            }
        }
        out.extend_from_slice(&self.headless);
        out
    }

    /// All pages whose template matches `instance` exactly.
    pub fn matching_pages(&self, instance: &str) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .candidates(instance)
            .into_iter()
            .filter(|&(pi, ci)| {
                self.graphs[pi].graphs[ci]
                    .as_ref()
                    .is_some_and(|g| is_cli_match(instance, g))
            })
            .map(|(pi, _)| pi)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A view is flagged ambiguous when the winning opener holds less than
/// this share of its votes. Misleading shared snippets split a view's
/// evidence roughly in half (well below the threshold); a single spurious
/// template match among many corroborating snippets stays above it.
const WINNER_SHARE_THRESHOLD: f64 = 0.75;

/// Per-page hierarchy evidence. Collected in parallel, merged into the
/// vote tallies in page order — since the serial loop only ever
/// *increments* tally entries, the ordered merge reproduces it exactly.
///
/// Opaque outside this module: it exists publicly only so an
/// [`EvidenceCache`] can hold `Arc`s of it.
pub struct PageEvidence {
    example_snippets: usize,
    self_match_failures: usize,
    /// One `(view, opener page index)` pair per vote cast.
    votes: Vec<(String, usize)>,
    /// View names this page's snippets showed at indentation 0.
    root_votes: Vec<String>,
}

/// Content key of one page's hierarchy-evidence artifact.
///
/// Evidence is a function of (a) the *global* compiled-template index —
/// folded in as `fingerprint`, the FNV over every page's ordered
/// [`graph_key`] — (b) the page's position `pi` (votes carry page
/// indices), and (c) the page-local fields the evidence loop reads:
/// working views, examples, context path and `Enters:` marker. The
/// function description deliberately does not participate, so a
/// prose-only manual revision invalidates no evidence at all; any CLI
/// change anywhere invalidates everything through the fingerprint.
fn evidence_key(fingerprint: u64, pi: usize, page: &ParsedPage) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    h.write_usize(pi);
    h.write_usize(page.entry.parent_views.len());
    for view in &page.entry.parent_views {
        h.write_field(view);
    }
    h.write_usize(page.entry.examples.len());
    for snippet in &page.entry.examples {
        h.write_usize(snippet.len());
        for line in snippet {
            h.write_field(line);
        }
    }
    match &page.context_path {
        Some(path) => {
            h.write_usize(1 + path.len());
            for seg in path {
                h.write_field(seg);
            }
        }
        None => {
            h.write_usize(0);
        }
    }
    match &page.enters_view {
        Some(v) => {
            h.write_usize(1);
            h.write_field(v);
        }
        None => {
            h.write_usize(0);
        }
    }
    h.finish()
}

/// In-memory cache of per-page [`PageEvidence`] artifacts, keyed by
/// [`evidence_key`]. Because the key embeds the whole-corpus template
/// fingerprint, a hit is always sound: the cached evidence was collected
/// against a bit-identical template index at the same page position.
#[derive(Default)]
pub struct EvidenceCache {
    entries: HashMap<u64, Arc<PageEvidence>>,
    /// The persisted section's text, cleared on every insert.
    memo: SectionMemo,
    pub hits: usize,
    pub misses: usize,
}

impl PageEvidence {
    /// Serialized shape: plain counts, the `(view, opener page)` vote
    /// pairs and the root-vote view names — everything the evidence
    /// fold reads, nothing else.
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("ex".to_string(), Value::Num(self.example_snippets as f64)),
            (
                "fail".to_string(),
                Value::Num(self.self_match_failures as f64),
            ),
            (
                "votes".to_string(),
                Value::Arr(
                    self.votes
                        .iter()
                        .map(|(view, pi)| {
                            Value::Arr(vec![Value::Str(view.clone()), Value::Num(*pi as f64)])
                        })
                        .collect(),
                ),
            ),
            (
                "roots".to_string(),
                Value::Arr(
                    self.root_votes
                        .iter()
                        .map(|v| Value::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<PageEvidence, DeError> {
        let count = |field: &str| -> Result<usize, DeError> {
            match v.get(field) {
                Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
                _ => Err(DeError::new(format!(
                    "evidence `{field}` is not a non-negative integer"
                ))),
            }
        };
        let example_snippets = count("ex")?;
        let self_match_failures = count("fail")?;
        let Some(Value::Arr(vote_items)) = v.get("votes") else {
            return Err(DeError::new("evidence `votes` is not a list".to_string()));
        };
        let mut votes = Vec::with_capacity(vote_items.len());
        for item in vote_items {
            match item {
                Value::Arr(pair) => match (pair.first(), pair.get(1), pair.len()) {
                    (Some(Value::Str(view)), Some(Value::Num(pi)), 2)
                        if *pi >= 0.0 && pi.fract() == 0.0 =>
                    {
                        votes.push((view.clone(), *pi as usize));
                    }
                    _ => {
                        return Err(DeError::new(
                            "evidence vote is not a [view, page] pair".to_string(),
                        ))
                    }
                },
                _ => {
                    return Err(DeError::new(
                        "evidence vote is not a [view, page] pair".to_string(),
                    ))
                }
            }
        }
        let Some(Value::Arr(root_items)) = v.get("roots") else {
            return Err(DeError::new("evidence `roots` is not a list".to_string()));
        };
        let mut root_votes = Vec::with_capacity(root_items.len());
        for item in root_items {
            let Value::Str(view) = item else {
                return Err(DeError::new(
                    "evidence root vote is not a string".to_string(),
                ));
            };
            root_votes.push(view.clone());
        }
        Ok(PageEvidence {
            example_snippets,
            self_match_failures,
            votes,
            root_votes,
        })
    }
}

impl EvidenceCache {
    pub fn new() -> EvidenceCache {
        EvidenceCache::default()
    }

    /// Number of distinct artifacts held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn insert(&mut self, key: u64, evidence: Arc<PageEvidence>) {
        self.entries.insert(key, evidence);
        self.memo.clear();
    }

    /// The persisted section: [`EvidenceCache::to_value`] rendered to
    /// text by `render`, memoized until the next insert.
    pub fn rendered_section<E>(
        &self,
        render: impl FnOnce(&Value) -> Result<String, E>,
    ) -> Result<Arc<RenderedSection>, E> {
        self.memo.get_or_render(|| render(&self.to_value()))
    }

    /// Serialize for the artifact store: fixed-width hex keys, sorted
    /// for stable bytes. Keys embed the whole-corpus template
    /// fingerprint (see [`evidence_key`]), so reloaded evidence can
    /// only ever hit against a bit-identical template index. Hit/miss
    /// counters are deliberately not persisted.
    pub fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(k, v)| (format!("{k:016x}"), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(vec![("entries".to_string(), Value::Obj(entries))])
    }

    /// Strict inverse of [`EvidenceCache::to_value`]: any malformed
    /// entry fails the whole load.
    pub fn from_value(v: &Value) -> Result<EvidenceCache, DeError> {
        let Some(Value::Obj(entries)) = v.get("entries") else {
            return Err(DeError::new(
                "missing evidence `entries` object".to_string(),
            ));
        };
        let mut cache = EvidenceCache::new();
        for (key, val) in entries {
            let k = u64::from_str_radix(key, 16)
                .map_err(|e| DeError::new(format!("evidence key `{key}` is not hex: {e}")))?;
            let ev = PageEvidence::from_value(val)
                .map_err(|e| DeError::new(format!("evidence entry `{key}`: {}", e.0)))?;
            cache.insert(k, Arc::new(ev));
        }
        Ok(cache)
    }

    /// Per-entry lossy inverse: malformed entries are skipped and
    /// reported; every valid entry still loads.
    pub fn from_value_lossy(v: &Value) -> (EvidenceCache, Vec<String>) {
        let mut errors = Vec::new();
        let Some(Value::Obj(entries)) = v.get("entries") else {
            errors.push("missing evidence `entries` object".to_string());
            return (EvidenceCache::new(), errors);
        };
        let mut cache = EvidenceCache::new();
        for (key, val) in entries {
            let k = match u64::from_str_radix(key, 16) {
                Ok(k) => k,
                Err(e) => {
                    errors.push(format!("evidence key `{key}` is not hex: {e}"));
                    continue;
                }
            };
            match PageEvidence::from_value(val) {
                Ok(ev) => {
                    cache.insert(k, Arc::new(ev));
                }
                Err(e) => errors.push(format!("evidence entry `{key}`: {}", e.0)),
            }
        }
        (cache, errors)
    }
}

/// Derive the hierarchy of a parsed corpus.
pub fn derive_hierarchy(pages: &[ParsedPage]) -> Derivation {
    let t0 = Instant::now();
    let corpus = CorpusGraphs::build(pages);
    let cgm_build_time = t0.elapsed();
    derive_from_graphs(pages, &corpus, cgm_build_time)
}

/// [`derive_hierarchy`] reusing per-page artifacts: compiled template
/// graphs from `graphs` and hierarchy evidence from `evidence`. Evidence
/// keys embed the whole-corpus template fingerprint (see
/// [`evidence_key`]), so a prose-only page edit re-collects nothing and
/// a CLI edit anywhere re-collects everything — either way the output is
/// identical to [`derive_hierarchy`] (modulo wall-clock stats).
pub fn derive_hierarchy_cached(
    pages: &[ParsedPage],
    graphs: &mut GraphCache,
    evidence: &mut EvidenceCache,
) -> Derivation {
    let t0 = Instant::now();
    let corpus = CorpusGraphs::build_cached(pages, graphs);
    let cgm_build_time = t0.elapsed();
    let t1 = Instant::now();

    let mut fp = Fnv1a::new();
    fp.write_usize(pages.len());
    for page in pages {
        fp.write_u64(graph_key(page));
    }
    let fingerprint = fp.finish();
    let keys: Vec<u64> = pages
        .iter()
        .enumerate()
        .map(|(pi, page)| evidence_key(fingerprint, pi, page))
        .collect();
    let mut per_page: Vec<Option<Arc<PageEvidence>>> =
        keys.iter().map(|k| evidence.entries.get(k).cloned()).collect();
    let missing: Vec<usize> = per_page
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_none())
        .map(|(i, _)| i)
        .collect();
    evidence.hits += pages.len() - missing.len();
    evidence.misses += missing.len();
    let fresh: Vec<Arc<PageEvidence>> =
        nassim_exec::par_map_chunked(&missing, EVIDENCE_MIN_CHUNK, |&i| {
            Arc::new(collect_page_evidence(i, &pages[i], &corpus))
        });
    for (&i, ev) in missing.iter().zip(fresh) {
        evidence.insert(keys[i], ev.clone());
        per_page[i] = Some(ev);
    }
    let per_page: Vec<Arc<PageEvidence>> = per_page
        .into_iter()
        .enumerate()
        .map(|(i, e)| e.unwrap_or_else(|| Arc::new(collect_page_evidence(i, &pages[i], &corpus))))
        .collect();
    fold_evidence(pages, per_page.iter().map(|e| e.as_ref()), cgm_build_time, t1)
}

/// Collect one page's hierarchy evidence against the corpus template
/// index — a pure function of (page, position, index), which is what
/// makes it cacheable under [`evidence_key`].
fn collect_page_evidence(pi: usize, page: &ParsedPage, corpus: &CorpusGraphs) -> PageEvidence {
    let mut ev = PageEvidence {
        example_snippets: 0,
        self_match_failures: 0,
        votes: Vec::new(),
        root_votes: Vec::new(),
    };
    let Some(view) = page.entry.parent_views.first() else {
        return ev;
    };
    // Explicit hierarchy (norsk): authoritative, no derivation needed.
    if let Some(path) = &page.context_path {
        if path.len() <= 1 {
            if let Some(v) = path.first().or(page.entry.parent_views.first()) {
                ev.root_votes.push(v.clone());
            }
        }
        if let Some(enters) = &page.enters_view {
            // This page opens `enters`: authoritative vote.
            ev.votes.push((enters.clone(), pi));
        }
        return ev;
    }
    // Example-based derivation. Manuals list one snippet per working
    // view in `ParentViews` order (multi-view commands); when counts
    // line up, pair snippet j with view j, otherwise attribute all
    // snippets to the primary view.
    let paired = page.entry.parent_views.len() == page.entry.examples.len()
        && page.entry.parent_views.len() > 1;
    for (j, snippet) in page.entry.examples.iter().enumerate() {
        let view = if paired {
            &page.entry.parent_views[j]
        } else {
            view
        };
        ev.example_snippets += 1;
        let Some(last) = snippet.last() else { continue };
        let child_indent = indent_of(last);
        let child_instance = last.trim_start();
        // Step 1: the innermost line must instantiate this page's CLI.
        let self_matches = corpus
            .candidates(child_instance)
            .into_iter()
            .any(|(p, c)| {
                p == pi
                    && corpus.graphs[p].graphs[c]
                        .as_ref()
                        .is_some_and(|g| is_cli_match(child_instance, g))
            });
        if !self_matches {
            ev.self_match_failures += 1;
            continue;
        }
        if child_indent == 0 {
            // No parent line: the working view is a root view.
            ev.root_votes.push(view.clone());
            continue;
        }
        // Step 2: track back to the parent instance by indentation.
        let parent_line = snippet[..snippet.len() - 1]
            .iter()
            .rev()
            .find(|l| indent_of(l) < child_indent);
        let Some(parent_line) = parent_line else {
            continue;
        };
        // Step 3: find templates matching the parent instance.
        let parents = corpus.matching_pages(parent_line.trim_start());
        // Step 4: vote.
        for parent_pi in parents {
            ev.votes.push((view.clone(), parent_pi));
        }
    }
    ev
}

fn derive_from_graphs(
    pages: &[ParsedPage],
    corpus: &CorpusGraphs,
    cgm_build_time: Duration,
) -> Derivation {
    let t1 = Instant::now();
    // Instance–template matching is the hot step; fan it out per page,
    // batched so cheap pages amortise the fan-out cost (unbatched, this
    // stage ran at 0.64× serial — the overhead outweighed the work).
    let evidence: Vec<PageEvidence> =
        nassim_exec::par_map_indexed_chunked(pages, EVIDENCE_MIN_CHUNK, |pi, page| {
            collect_page_evidence(pi, page, corpus)
        });
    fold_evidence(pages, evidence.iter(), cgm_build_time, t1)
}

/// Merge per-page evidence (in page order) into the vote tallies and
/// aggregate. Shared by the cold and cached derivations, so equal
/// evidence always folds to an equal [`Derivation`].
fn fold_evidence<'a>(
    pages: &[ParsedPage],
    evidence: impl Iterator<Item = &'a PageEvidence>,
    cgm_build_time: Duration,
    t1: Instant,
) -> Derivation {
    let mut votes: BTreeMap<String, BTreeMap<usize, usize>> = BTreeMap::new();
    let mut stats = DerivationStats {
        cgm_build_time,
        ..DerivationStats::default()
    };
    let mut root_votes: BTreeMap<String, usize> = BTreeMap::new();
    for ev in evidence {
        stats.example_snippets += ev.example_snippets;
        stats.self_match_failures += ev.self_match_failures;
        stats.votes_cast += ev.votes.len();
        for v in &ev.root_votes {
            *root_votes.entry(v.clone()).or_default() += 1;
        }
        for (view, opener) in &ev.votes {
            *votes.entry(view.clone()).or_default().entry(*opener).or_default() += 1;
        }
    }

    // Aggregate: majority voting with conflict detection.
    let mut openers = BTreeMap::new();
    let mut ambiguous = Vec::new();
    for (view, tally) in &votes {
        let mut ranked: Vec<(usize, usize)> = tally.iter().map(|(&p, &v)| (p, v)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let (winner, winner_votes) = ranked[0];
        openers.insert(view.clone(), winner);
        let total_votes: usize = ranked.iter().map(|&(_, v)| v).sum();
        if ranked.len() > 1
            && (winner_votes as f64) < (total_votes as f64) * WINNER_SHARE_THRESHOLD
        {
            ambiguous.push(AmbiguousView {
                view: view.clone(),
                reason: AmbiguityReason::ConflictingEvidence,
                candidates: ranked.clone(),
            });
        }
    }
    // Views referenced as working views but never derived and not roots.
    for page in pages {
        for view in &page.entry.parent_views {
            if !openers.contains_key(view)
                && !root_votes.contains_key(view)
                && !ambiguous.iter().any(|a| &a.view == view)
            {
                ambiguous.push(AmbiguousView {
                    view: view.clone(),
                    reason: AmbiguityReason::NoEvidence,
                    candidates: Vec::new(),
                });
            }
        }
    }
    // Root view: the most root-voted name; record ROOT_OPENER for each.
    let root_view = root_votes
        .iter()
        .max_by_key(|(_, &v)| v)
        .map(|(k, _)| k.clone());
    for view in root_votes.keys() {
        openers.entry(view.clone()).or_insert(ROOT_OPENER);
    }

    stats.derivation_time = t1.elapsed();
    Derivation {
        openers,
        votes,
        ambiguous,
        root_view,
        stats,
    }
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_corpus::CorpusEntry;

    fn page(
        url: &str,
        cli: &str,
        view: &str,
        examples: Vec<Vec<&str>>,
    ) -> ParsedPage {
        ParsedPage {
            url: url.to_string(),
            entry: CorpusEntry {
                clis: vec![cli.to_string()],
                func_def: String::new(),
                parent_views: vec![view.to_string()],
                para_def: Vec::new(),
                examples: examples
                    .into_iter()
                    .map(|s| s.into_iter().map(str::to_string).collect())
                    .collect(),
                source: url.to_string(),
            },
            context_path: None,
            enters_view: None,
        }
    }

    fn bgp_pages() -> Vec<ParsedPage> {
        vec![
            // 0: the opener.
            page("p0", "bgp <as-number>", "system view", vec![vec!["bgp 100"]]),
            // 1, 2: children with the paper's Figure-3 style snippets.
            page(
                "p1",
                "peer <ipv4-address> group <group-name>",
                "BGP view",
                vec![vec!["bgp 100", " peer 10.1.1.1 group test"]],
            ),
            page(
                "p2",
                "router-id <ipv4-address>",
                "BGP view",
                vec![vec!["bgp 200", " router-id 1.1.1.1"]],
            ),
        ]
    }

    #[test]
    fn derives_the_paper_example() {
        let pages = bgp_pages();
        let d = derive_hierarchy(&pages);
        // "it follows that the CLI command bgp <as-number> enters the
        // 'BGP view'".
        assert_eq!(d.openers.get("BGP view"), Some(&0));
        assert_eq!(d.root_view.as_deref(), Some("system view"));
        assert!(d.ambiguous.is_empty(), "{:?}", d.ambiguous);
        assert_eq!(d.votes["BGP view"][&0], 2); // two corroborating snippets
    }

    #[test]
    fn conflicting_evidence_flags_ambiguity() {
        let mut pages = bgp_pages();
        // A second opener-looking template that also matches "vpn 300"-ish
        // parents: make p3 a child whose snippet shows a different parent.
        pages.push(page("p3", "msdp-peer <ipv4-address>", "BGP view",
            vec![vec!["ospf 1", " msdp-peer 2.2.2.2"]]));
        pages.push(page("p4", "ospf <ospf-process-id>", "system view", vec![vec!["ospf 1"]]));
        let d = derive_hierarchy(&pages);
        // BGP view now has votes for both `bgp` (2) and `ospf` (1) — the
        // runner-up exceeds the conflict ratio.
        let amb = d
            .ambiguous
            .iter()
            .find(|a| a.view == "BGP view")
            .expect("BGP view flagged");
        assert_eq!(amb.reason, AmbiguityReason::ConflictingEvidence);
        assert_eq!(amb.candidates.len(), 2);
        // Majority still wins for tree construction.
        assert_eq!(d.openers["BGP view"], 0);
    }

    #[test]
    fn no_evidence_flags_ambiguity() {
        let pages = vec![page("p0", "mystery <x>", "Orphan view", vec![])];
        let d = derive_hierarchy(&pages);
        let amb = d.ambiguous.iter().find(|a| a.view == "Orphan view").unwrap();
        assert_eq!(amb.reason, AmbiguityReason::NoEvidence);
    }

    #[test]
    fn self_match_failures_counted() {
        // Snippet's innermost line does not instantiate the page's CLI.
        let pages = vec![page(
            "p0",
            "vlan <vlan-id>",
            "system view",
            vec![vec!["something else entirely"]],
        )];
        let d = derive_hierarchy(&pages);
        assert_eq!(d.stats.self_match_failures, 1);
    }

    #[test]
    fn explicit_context_bypasses_derivation() {
        let mut opener = page("p0", "bgp <autonomous-system>", "configure", vec![]);
        opener.context_path = Some(vec!["configure".into()]);
        opener.enters_view = Some("configure BGP".into());
        let mut child = page("p1", "router-id <ip-address>", "configure BGP", vec![]);
        child.context_path = Some(vec!["configure".into(), "configure BGP".into()]);
        let d = derive_hierarchy(&[opener, child]);
        assert_eq!(d.openers.get("configure BGP"), Some(&0));
        assert_eq!(d.root_view.as_deref(), Some("configure"));
        assert_eq!(d.stats.example_snippets, 0, "no examples inspected");
    }

    #[test]
    fn nested_views_derive_transitively() {
        let pages = vec![
            page("p0", "bgp <as-number>", "system view", vec![vec!["bgp 100"]]),
            page(
                "p1",
                "ipv4-family unicast",
                "BGP view",
                vec![vec!["bgp 100", " ipv4-family unicast"]],
            ),
            page(
                "p2",
                "preference <preference>",
                "BGP-IPv4 view",
                vec![vec!["bgp 100", " ipv4-family unicast", "  preference 120"]],
            ),
        ];
        let d = derive_hierarchy(&pages);
        assert_eq!(d.openers["BGP view"], 0);
        assert_eq!(d.openers["BGP-IPv4 view"], 1);
    }
}
