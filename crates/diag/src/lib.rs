//! Unified typed errors and source-span diagnostics for every NAssim layer.
//!
//! The paper's Validator exists because vendor manuals are messy; this
//! crate makes the reproduction's own plumbing treat that messiness as
//! *data* rather than as a reason to panic. Three pieces:
//!
//! - [`NassimError`]: the workspace-wide error enum with per-stage
//!   variants, used wherever a stage can fail outright.
//! - [`Diagnostic`]: one structured finding — severity, [`Stage`],
//!   vendor, message and an optional [`SourceSpan`] (page URL + byte
//!   offset into the HTML, or CLI template + column from the BNF
//!   parser).
//! - [`DiagSink`] / [`DiagReport`]: stages append diagnostics to a sink;
//!   the finished report renders rustc-style human output and
//!   round-trips through JSON for machine consumers.
//!
//! [`chaos`] holds the seeded fault-plan core every fault family injects
//! through, so injected failures replay from their seed.

pub mod chaos;

use serde::{Deserialize, Serialize};
use std::fmt;

// ---------------------------------------------------------------------------
// Severity & stage taxonomy
// ---------------------------------------------------------------------------

/// How bad a finding is.
///
/// `Error` means data was lost (a page skipped, a command unplaced);
/// `Warning` means the pipeline recovered but the output may be degraded;
/// `Note` is advisory context attached to another finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Error,
    Warning,
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        })
    }
}

/// Which pipeline stage produced a finding — mirrors Figure 2 of the
/// paper (parse → syntax audit → hierarchy derivation → VDM build →
/// empirical validation) plus the supporting layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// HTML tokenizer / DOM construction.
    Html,
    /// Vendor parser framework (TDD harness).
    Parse,
    /// BNF syntax audit of CLI templates.
    Syntax,
    /// Command-hierarchy derivation (CGM voting).
    Hierarchy,
    /// VDM tree assembly.
    Build,
    /// Empirical validation against configs / devices.
    Empirical,
    /// Softdevice server / session layer.
    Device,
    /// Anything that indicates a bug in NAssim itself.
    Internal,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Html => "html",
            Stage::Parse => "parse",
            Stage::Syntax => "syntax",
            Stage::Hierarchy => "hierarchy",
            Stage::Build => "build",
            Stage::Empirical => "empirical",
            Stage::Device => "device",
            Stage::Internal => "internal",
        })
    }
}

// ---------------------------------------------------------------------------
// Source spans
// ---------------------------------------------------------------------------

/// Where in the source material a finding points.
///
/// `source` is a page URL for HTML-derived findings or the CLI template
/// text for syntax findings; `start..end` are byte offsets into the raw
/// page HTML (tokenizer spans) or column offsets into the template (BNF
/// parser spans). A zero-length span (`start == end`) marks a point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceSpan {
    pub source: String,
    pub start: usize,
    pub end: usize,
}

impl SourceSpan {
    pub fn new(source: impl Into<String>, start: usize, end: usize) -> SourceSpan {
        SourceSpan {
            source: source.into(),
            start,
            end,
        }
    }

    /// A zero-length span pointing at one offset.
    pub fn point(source: impl Into<String>, at: usize) -> SourceSpan {
        SourceSpan::new(source, at, at)
    }
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end > self.start {
            write!(f, "{}:{}..{}", self.source, self.start, self.end)
        } else {
            write!(f, "{}:{}", self.source, self.start)
        }
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// One structured finding from any pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    pub severity: Severity,
    pub stage: Stage,
    /// Vendor the finding belongs to, when known.
    pub vendor: Option<String>,
    pub message: String,
    pub span: Option<SourceSpan>,
}

impl Diagnostic {
    pub fn new(severity: Severity, stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity,
            stage,
            vendor: None,
            message: message.into(),
            span: None,
        }
    }

    pub fn error(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Error, stage, message)
    }

    pub fn warning(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Warning, stage, message)
    }

    pub fn note(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Note, stage, message)
    }

    pub fn with_span(mut self, span: SourceSpan) -> Diagnostic {
        self.span = Some(span);
        self
    }

    pub fn with_vendor(mut self, vendor: impl Into<String>) -> Diagnostic {
        self.vendor = Some(vendor.into());
        self
    }

    /// Render one finding rustc-style:
    ///
    /// ```text
    /// warning[html]: unclosed element `div`
    ///   --> manual://helix/vlan:142
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.stage, self.message);
        if let Some(span) = &self.span {
            out.push_str(&format!("\n  --> {span}"));
        }
        if let Some(vendor) = &self.vendor {
            out.push_str(&format!("\n  = vendor: {vendor}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

// ---------------------------------------------------------------------------
// Sink & report
// ---------------------------------------------------------------------------

/// Accumulator the pipeline stages append diagnostics to.
#[derive(Debug, Clone, Default)]
pub struct DiagSink {
    diagnostics: Vec<Diagnostic>,
}

impl DiagSink {
    pub fn new() -> DiagSink {
        DiagSink::default()
    }

    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    pub fn error(&mut self, stage: Stage, message: impl Into<String>) {
        self.push(Diagnostic::error(stage, message));
    }

    pub fn warning(&mut self, stage: Stage, message: impl Into<String>) {
        self.push(Diagnostic::warning(stage, message));
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Finish collection, ordering findings by severity (errors first)
    /// while keeping the emission order within each severity.
    pub fn into_report(self) -> DiagReport {
        let mut diagnostics = self.diagnostics;
        diagnostics.sort_by_key(|d| d.severity);
        DiagReport { diagnostics }
    }
}

/// The finished, renderable collection of findings for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiagReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl DiagReport {
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Findings from one stage, in report order.
    pub fn for_stage(&self, stage: Stage) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.stage == stage)
    }

    /// Rustc-style human rendering of every finding plus a tally line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} diagnostics ({} errors, {} warnings, {} notes)",
            self.len(),
            self.errors(),
            self.warnings(),
            self.count(Severity::Note)
        ));
        out
    }

    /// Serialize to pretty JSON (the machine-readable report surface).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{\"diagnostics\":[]}".to_string())
    }

    /// Parse a report back from [`DiagReport::to_json`] output.
    pub fn from_json(json: &str) -> Result<DiagReport, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl FromIterator<Diagnostic> for DiagReport {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> DiagReport {
        let mut sink = DiagSink::new();
        sink.extend(iter);
        sink.into_report()
    }
}

impl fmt::Display for DiagReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

// ---------------------------------------------------------------------------
// The workspace error enum
// ---------------------------------------------------------------------------

/// The workspace-wide typed error: every fallible NAssim seam returns
/// this (or a thin wrapper over it).
///
/// Variants are struct-shaped so the vendored serde derive can handle
/// them and so messages stay actionable (`UnknownVendor` carries the
/// known set, not just the bad name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NassimError {
    /// A vendor name no parser/style is registered for.
    UnknownVendor { vendor: String, known: Vec<String> },
    /// A manual page could not be parsed at all.
    ParsePage {
        vendor: String,
        url: String,
        reason: String,
    },
    /// An assimilation run was handed zero pages.
    EmptyManual { vendor: String },
    /// A manual page exceeded an ingestion resource ceiling and was
    /// quarantined (bytes/tokens/nodes — see `nassim-html`'s budgets).
    BudgetExhausted {
        vendor: String,
        url: String,
        resource: String,
        used: usize,
        cap: usize,
    },
    /// A vendor parser panicked on one page; the page was quarantined
    /// and the panic payload preserved here.
    PagePanic {
        vendor: String,
        url: String,
        payload: String,
    },
    /// Hierarchy derivation failed outright.
    Hierarchy { reason: String },
    /// Device-model construction / softdevice failure.
    Device { reason: String },
    /// A saved artifact store failed to load: missing magic, unsupported
    /// schema version, or structurally corrupt contents.
    ArtifactCorrupt { path: String, reason: String },
    /// A seeded `CrashPlan` kill point fired inside the persistence
    /// layer (torn temp write, partial rename, torn journal append).
    /// Only ever produced under `NASSIM_CRASH` or an explicit test
    /// plan — callers treat it exactly like the process dying at that
    /// byte: whatever the kill point left on disk is what recovery
    /// must cope with.
    CrashInjected { path: String, point: String },
    /// A write-ahead journal stopped replaying at a torn or corrupt
    /// record. Everything before `offset` was recovered; the tail is
    /// discarded (standard WAL semantics for an append cut short).
    JournalTorn {
        path: String,
        offset: usize,
        reason: String,
    },
    /// An I/O failure, with the operation that failed.
    Io { context: String, reason: String },
    /// An internal invariant broke — a bug in NAssim, not in the input.
    Internal { context: String },
}

impl NassimError {
    /// Wrap an I/O error with the operation it interrupted.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> NassimError {
        NassimError::Io {
            context: context.into(),
            reason: err.to_string(),
        }
    }

    pub fn internal(context: impl Into<String>) -> NassimError {
        NassimError::Internal {
            context: context.into(),
        }
    }

    /// The pipeline stage this error belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            NassimError::UnknownVendor { .. } | NassimError::ParsePage { .. } => Stage::Parse,
            NassimError::EmptyManual { .. } => Stage::Parse,
            NassimError::BudgetExhausted { .. } | NassimError::PagePanic { .. } => Stage::Parse,
            NassimError::Hierarchy { .. } => Stage::Hierarchy,
            NassimError::Device { .. } => Stage::Device,
            NassimError::ArtifactCorrupt { .. } => Stage::Internal,
            NassimError::CrashInjected { .. } => Stage::Internal,
            NassimError::JournalTorn { .. } => Stage::Internal,
            NassimError::Io { .. } => Stage::Internal,
            NassimError::Internal { .. } => Stage::Internal,
        }
    }

    /// Convert into an error-severity [`Diagnostic`] for the report.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let mut d = Diagnostic::error(self.stage(), self.to_string());
        if let NassimError::ParsePage { url, vendor, .. }
        | NassimError::BudgetExhausted { url, vendor, .. }
        | NassimError::PagePanic { url, vendor, .. } = self
        {
            d = d.with_span(SourceSpan::point(url.clone(), 0));
            d = d.with_vendor(vendor.clone());
        }
        if let NassimError::UnknownVendor { vendor, .. } | NassimError::EmptyManual { vendor } =
            self
        {
            d = d.with_vendor(vendor.clone());
        }
        d
    }
}

impl fmt::Display for NassimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NassimError::UnknownVendor { vendor, known } => write!(
                f,
                "unknown vendor `{vendor}` (known vendors: {})",
                known.join(", ")
            ),
            NassimError::ParsePage {
                vendor,
                url,
                reason,
            } => write!(f, "cannot parse {vendor} page {url}: {reason}"),
            NassimError::EmptyManual { vendor } => {
                write!(f, "manual for `{vendor}` contains no pages")
            }
            NassimError::BudgetExhausted {
                vendor,
                url,
                resource,
                used,
                cap,
            } => write!(
                f,
                "{vendor} page {url} quarantined: ingestion budget exhausted \
                 ({used} {resource} used, cap {cap})"
            ),
            NassimError::PagePanic {
                vendor,
                url,
                payload,
            } => write!(
                f,
                "{vendor} page {url} quarantined: parser worker panicked: {payload}"
            ),
            NassimError::Hierarchy { reason } => write!(f, "hierarchy derivation failed: {reason}"),
            NassimError::Device { reason } => write!(f, "device error: {reason}"),
            NassimError::ArtifactCorrupt { path, reason } => {
                write!(f, "artifact store `{path}` is corrupt: {reason}")
            }
            NassimError::CrashInjected { path, point } => {
                write!(f, "injected crash at kill point `{point}` while persisting `{path}`")
            }
            NassimError::JournalTorn {
                path,
                offset,
                reason,
            } => write!(f, "journal `{path}` torn at byte {offset}: {reason}"),
            NassimError::Io { context, reason } => write!(f, "I/O error while {context}: {reason}"),
            NassimError::Internal { context } => {
                write!(f, "internal error (please report): {context}")
            }
        }
    }
}

impl std::error::Error for NassimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn severity_orders_errors_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Note);
    }

    #[test]
    fn sink_sorts_report_by_severity() {
        let mut sink = DiagSink::new();
        sink.push(Diagnostic::note(Stage::Syntax, "n"));
        sink.warning(Stage::Html, "w");
        sink.error(Stage::Parse, "e");
        let report = sink.into_report();
        let sev: Vec<Severity> = report.diagnostics.iter().map(|d| d.severity).collect();
        assert_eq!(sev, vec![Severity::Error, Severity::Warning, Severity::Note]);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
    }

    #[test]
    fn render_is_rustc_style() {
        let d = Diagnostic::warning(Stage::Html, "unclosed element `div`")
            .with_span(SourceSpan::point("manual://helix/vlan", 142))
            .with_vendor("helix");
        let text = d.render();
        assert!(text.starts_with("warning[html]: unclosed element `div`"));
        assert!(text.contains("--> manual://helix/vlan:142"));
        assert!(text.contains("vendor: helix"));
    }

    #[test]
    fn report_json_round_trips() -> Result<(), Box<dyn Error>> {
        let report: DiagReport = vec![
            Diagnostic::error(Stage::Parse, "cannot parse page")
                .with_span(SourceSpan::new("manual://h4c/x", 10, 20))
                .with_vendor("h4c"),
            Diagnostic::warning(Stage::Build, "unplaced page"),
        ]
        .into_iter()
        .collect();
        let json = report.to_json();
        assert!(json.contains("\"severity\""));
        let back = DiagReport::from_json(&json)?;
        assert_eq!(back, report);
        Ok(())
    }

    #[test]
    fn unknown_vendor_message_lists_known() {
        let e = NassimError::UnknownVendor {
            vendor: "acme".into(),
            known: vec!["helix".into(), "norsk".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("acme"));
        assert!(msg.contains("helix, norsk"));
        assert_eq!(e.stage(), Stage::Parse);
    }

    #[test]
    fn error_converts_to_spanned_diagnostic() {
        let e = NassimError::ParsePage {
            vendor: "helix".into(),
            url: "manual://helix/bad".into(),
            reason: "no element nodes".into(),
        };
        let d = e.to_diagnostic();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.stage, Stage::Parse);
        assert_eq!(d.span.as_ref().map(|s| s.source.as_str()), Some("manual://helix/bad"));
        assert_eq!(d.vendor.as_deref(), Some("helix"));
    }

    #[test]
    fn quarantine_errors_are_spanned_parse_diagnostics() {
        let budget = NassimError::BudgetExhausted {
            vendor: "helix".into(),
            url: "manual://helix/bomb".into(),
            resource: "nodes".into(),
            used: 150_001,
            cap: 100_000,
        };
        assert_eq!(budget.stage(), Stage::Parse);
        let d = budget.to_diagnostic();
        assert_eq!(d.span.as_ref().map(|s| s.source.as_str()), Some("manual://helix/bomb"));
        assert!(d.message.contains("150001 nodes used, cap 100000"));

        let panic = NassimError::PagePanic {
            vendor: "norsk".into(),
            url: "manual://norsk/bad".into(),
            payload: "index out of bounds".into(),
        };
        assert_eq!(panic.stage(), Stage::Parse);
        let d = panic.to_diagnostic();
        assert_eq!(d.vendor.as_deref(), Some("norsk"));
        assert!(d.message.contains("index out of bounds"));
    }

    #[test]
    fn errors_round_trip_through_json() -> Result<(), Box<dyn Error>> {
        let errors = vec![
            NassimError::EmptyManual { vendor: "h4c".into() },
            NassimError::internal("lookup chain broke"),
        ];
        let json = serde_json::to_string(&errors)?;
        let back: Vec<NassimError> = serde_json::from_str(&json)?;
        assert_eq!(back, errors);
        Ok(())
    }
}
