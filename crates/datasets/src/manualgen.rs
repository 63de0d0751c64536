//! Synthetic vendor-manual generation with labelled defect injection.
//!
//! For each catalog command, one HTML manual page is rendered in the
//! vendor's house style (section structure, CSS classes, keyword/param
//! span markup — see [`crate::style`]). Crucially, the page reproduces the
//! two properties the paper's Parser/Validator exist to handle:
//!
//! 1. **Parameters are distinguished only by font markup.** CLI text
//!    carries no angle brackets; `<span class="…">` classes mark keywords
//!    vs parameters, and some vendors rotate among *several* keyword
//!    classes across pages (§2.2 / Appendix B). A parser that misses a
//!    variant class silently mis-types parameters — exactly the failure
//!    the TDD self-check test catches.
//! 2. **Manuals contain errors.** With a seeded RNG, a configurable
//!    fraction of pages gets one CLI-template corruption (unpaired or
//!    mismatched brackets, broken placeholders), and a configurable
//!    fraction of views gets conflicting example snippets (Figure 7's
//!    ambiguous-view problem). Every injection is recorded as ground
//!    truth so Validator *detection* can be scored, not just run.

use crate::catalog::{Catalog, CatalogCommand};
use crate::style::{HierarchyStyle, VendorStyle};
use nassim_cgm::{generate::sample_instance, CliGraph};
use nassim_corpus::hash::fnv1a_str;
use nassim_syntax::parse_template;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Knobs of manual generation. All sampling is driven by `seed`.
#[derive(Debug, Clone)]
pub struct GenOptions {
    pub seed: u64,
    /// Extra procedural commands on top of the base catalog (scale knob;
    /// the paper's large vendors have 12–14k CLIs).
    pub scale_extra: usize,
    /// Fraction of pages whose first CLI form receives one injected
    /// syntax error.
    pub syntax_error_rate: f64,
    /// Fraction of (non-root) views whose example snippets conflict.
    pub ambiguity_rate: f64,
    /// Example snippets rendered per page (Examples-style vendors).
    pub examples_per_page: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            seed: 0,
            scale_extra: 0,
            syntax_error_rate: 0.002,
            ambiguity_rate: 0.02,
            examples_per_page: 1,
        }
    }
}

/// One generated manual page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManualPage {
    /// Stable identifier, e.g. `manual://helix/bgp/bgp.peer-as`.
    pub url: String,
    /// Catalog key of the documented command (empty for the preface).
    pub command_key: String,
    /// The page HTML.
    pub html: String,
}

/// Ground-truth record of one injected defect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedDefect {
    /// The page's first CLI form was corrupted.
    SyntaxError {
        page_url: String,
        command_key: String,
        /// Mutation applied: `drop-close`, `stray-close`, `swap-close`,
        /// `break-placeholder`.
        mutation: String,
    },
    /// The view's example snippets disagree about its opener.
    AmbiguousView { view_key: String },
}

/// A complete generated manual.
#[derive(Debug, Clone)]
pub struct Manual {
    pub vendor: String,
    pub device_model: String,
    pub pages: Vec<ManualPage>,
    /// Injected defects (ground truth for Validator scoring).
    pub defects: Vec<InjectedDefect>,
    /// The catalog the manual documents (the "true" device model).
    pub catalog: Catalog,
}

impl Manual {
    /// Ground-truth count of injected syntax errors.
    pub fn injected_syntax_errors(&self) -> usize {
        self.defects
            .iter()
            .filter(|d| matches!(d, InjectedDefect::SyntaxError { .. }))
            .count()
    }

    /// Ground-truth set of ambiguous view keys.
    pub fn ambiguous_views(&self) -> Vec<&str> {
        self.defects
            .iter()
            .filter_map(|d| match d {
                InjectedDefect::AmbiguousView { view_key } => Some(view_key.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// Generate the manual of `style`'s vendor over `catalog`.
/// Commands per worker chunk when rendering pages: each render is
/// cheap enough that per-item fan-out barely broke even (0.92× in
/// BENCH_parallel.json).
const RENDER_MIN_CHUNK: usize = 16;

pub fn generate(style: &VendorStyle, catalog: &Catalog, opts: &GenOptions) -> Manual {
    let mut defects = Vec::new();
    let mut master = StdRng::seed_from_u64(opts.seed);

    // Decide ambiguous views up front (Examples-style vendors only).
    let mut ambiguous: Vec<String> = Vec::new();
    if style.hierarchy == HierarchyStyle::Examples {
        for v in &catalog.views {
            if v.key != "system" && master.gen_bool(opts.ambiguity_rate) {
                ambiguous.push(v.key.clone());
                defects.push(InjectedDefect::AmbiguousView {
                    view_key: v.key.clone(),
                });
            }
        }
    }

    let mut pages = Vec::with_capacity(catalog.commands.len() + 1);
    pages.push(preface_page(style));

    // Per-view counter so ambiguity injection alternates deterministically.
    // Precomputed serially (a map increment per command) so the expensive
    // page rendering below can fan out with the same mislead decisions.
    let mut per_view_counter: BTreeMap<&str, usize> = BTreeMap::new();
    let misleads: Vec<bool> = catalog
        .commands
        .iter()
        .map(|cmd| {
            let counter = per_view_counter.entry(cmd.view.as_str()).or_insert(0);
            *counter += 1;
            ambiguous.contains(&cmd.view) && (*counter).is_multiple_of(2)
        })
        .collect();

    // Each page's RNG stream is derived from the master seed and the page
    // URL, so rendering is embarrassingly parallel and byte-identical to a
    // serial pass regardless of worker count.
    let rendered: Vec<(ManualPage, Option<InjectedDefect>)> =
        nassim_exec::par_map_indexed_chunked(&catalog.commands, RENDER_MIN_CHUNK, |i, cmd| {
            let url = format!("manual://{}/{}/{}", style.name, cmd.group, cmd.key);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ fnv1a_str(&url));

            // CLI forms, with optional corruption of the first form.
            let mut cli_forms = style.cli_forms(cmd);
            let mut defect = None;
            if rng.gen_bool(opts.syntax_error_rate) {
                let (corrupted, mutation) = corrupt_template(&cli_forms[0], &mut rng);
                cli_forms[0] = corrupted;
                defect = Some(InjectedDefect::SyntaxError {
                    page_url: url.clone(),
                    command_key: cmd.key.clone(),
                    mutation,
                });
            }

            // Example snippets (or explicit context for norsk-style vendors).
            let examples = if style.hierarchy == HierarchyStyle::Examples {
                build_examples(style, catalog, cmd, misleads[i], opts.examples_per_page, &mut rng)
            } else {
                Vec::new()
            };

            let html = match style.name {
                "cirrus" => render_cirrus(style, catalog, cmd, &cli_forms, &examples, &mut rng),
                "helix" => render_helix(style, catalog, cmd, &cli_forms, &examples, &mut rng),
                "norsk" => render_norsk(style, catalog, cmd, &cli_forms, &mut rng),
                _ => render_h4c(style, catalog, cmd, &cli_forms, &examples, &mut rng),
            };
            (
                ManualPage {
                    url,
                    command_key: cmd.key.clone(),
                    html,
                },
                defect,
            )
        });
    for (page, defect) in rendered {
        defects.extend(defect);
        pages.push(page);
    }

    Manual {
        vendor: style.name.to_string(),
        device_model: style.device_model.to_string(),
        pages,
        defects,
        catalog: catalog.clone(),
    }
}

/// Apply one of four template corruptions; returns `(corrupted, name)`.
fn corrupt_template(template: &str, rng: &mut StdRng) -> (String, String) {
    let closer_pos = template.rfind(['}', ']']);
    let placeholder_pos = template.find('>');
    let choices: Vec<&str> = match (closer_pos.is_some(), placeholder_pos.is_some()) {
        (true, true) => vec!["drop-close", "stray-close", "swap-close", "break-placeholder"],
        (true, false) => vec!["drop-close", "stray-close", "swap-close"],
        (false, true) => vec!["stray-close", "break-placeholder"],
        (false, false) => vec!["stray-close"],
    };
    let mut mutation = choices[rng.gen_range(0..choices.len())];
    let corrupted = match (mutation, closer_pos, placeholder_pos) {
        ("drop-close", Some(pos), _) => {
            let mut s = template.to_string();
            s.remove(pos);
            s.split_whitespace().collect::<Vec<_>>().join(" ")
        }
        ("swap-close", Some(pos), _) => {
            let ch = template.as_bytes()[pos];
            let swapped = if ch == b'}' { "]" } else { "}" };
            let mut s = template.to_string();
            s.replace_range(pos..pos + 1, swapped);
            s
        }
        ("break-placeholder", _, Some(pos)) => {
            // Remove the '>' of the first placeholder.
            let mut s = template.to_string();
            s.remove(pos);
            s
        }
        // stray-close, plus the (unreachable) arms where a mutation was
        // chosen without its anchor character present.
        _ => {
            mutation = "stray-close";
            format!("{template} ]")
        }
    };
    debug_assert!(
        parse_template(&corrupted).is_err(),
        "corruption `{mutation}` of `{template}` still parses: {corrupted}"
    );
    (corrupted, mutation.to_string())
}

/// Build example snippets: opener-chain instances with one-space-per-level
/// indentation, then an instance of the command itself. Multi-view
/// commands get **one snippet per view, in `ParentViews` order** — the
/// convention real manuals follow and the pairing the hierarchy deriver
/// relies on. With `mislead`, the innermost opener of the *primary*
/// view's snippet is replaced by the opener of a different view — the
/// Figure-7 shared-snippet ambiguity.
fn build_examples(
    style: &VendorStyle,
    catalog: &Catalog,
    cmd: &CatalogCommand,
    mislead: bool,
    count: usize,
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let views: Vec<&str> = std::iter::once(cmd.view.as_str())
        .chain(cmd.also_views.iter().map(String::as_str))
        .collect();
    let multi_view = views.len() > 1;
    let mut out = Vec::new();
    for (vi, view) in views.iter().enumerate() {
        let mut chain: Vec<&CatalogCommand> = catalog.opener_chain(view);
        if vi == 0 && mislead && !chain.is_empty() {
            // Swap the innermost opener for another view's opener.
            let candidates: Vec<&CatalogCommand> = catalog
                .commands
                .iter()
                .filter(|c| c.opens.is_some() && c.key != chain[chain.len() - 1].key)
                .collect();
            if !candidates.is_empty() {
                let pick = candidates[rng.gen_range(0..candidates.len())];
                let last = chain.len() - 1;
                chain[last] = pick;
            }
        }
        let snippets = if multi_view { 1 } else { count.max(1) };
        for _ in 0..snippets {
            let mut lines = Vec::new();
            for (depth, opener) in chain.iter().enumerate() {
                if let Some(line) = instance_line(style, &opener.template, depth, rng) {
                    lines.push(line);
                }
            }
            if let Some(line) = instance_line(style, &cmd.template, chain.len(), rng) {
                lines.push(line);
            }
            out.push(lines);
        }
    }
    out
}

/// One indented sampled instance of a catalog template rendered through a
/// vendor style, or `None` if the rendered form is not grammatical (base
/// catalog templates always are; this keeps generation panic-free).
fn instance_line(
    style: &VendorStyle,
    template: &str,
    depth: usize,
    rng: &mut StdRng,
) -> Option<String> {
    let rendered = style.render_template(template);
    let graph = CliGraph::build(&parse_template(&rendered).ok()?);
    Some(format!("{}{}", " ".repeat(depth), sample_instance(&graph, rng)))
}

/// The vendor view names a command works under, primary first.
fn view_names(style: &VendorStyle, cmd: &CatalogCommand) -> Vec<String> {
    std::iter::once(cmd.view.as_str())
        .chain(cmd.also_views.iter().map(String::as_str))
        .map(|v| style.view_name(v))
        .collect()
}

/// Render a CLI form as span-marked HTML: keywords and parameters are
/// distinguished **only** by their span class (no angle brackets), which
/// is what real manual RTF does (Appendix B).
fn render_cli_spans(style: &VendorStyle, cli: &str, rng: &mut StdRng) -> String {
    let kw_class = style.keyword_span_class(rng);
    let param_class = style.param_span_class(rng);
    cli.split_whitespace()
        .map(|tok| match tok {
            "{" | "}" | "[" | "]" | "|" => tok.to_string(),
            _ => {
                if let Some(name) = tok.strip_prefix('<').and_then(|t| t.strip_suffix('>')) {
                    format!(r#"<span class="{param_class}">{name}</span>"#)
                } else if tok.starts_with('<') {
                    // A corrupted placeholder (break-placeholder mutation):
                    // emit it as literal text so the defect survives the
                    // HTML round trip for the Validator to find.
                    nassim_escape(tok)
                } else {
                    format!(r#"<span class="{kw_class}">{tok}</span>"#)
                }
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn para_rows(style: &VendorStyle, cmd: &CatalogCommand) -> Vec<(String, String)> {
    cmd.params
        .iter()
        .map(|p| (style.param(&p.name), p.description.clone()))
        .collect()
}

fn examples_pre(examples: &[Vec<String>]) -> String {
    examples
        .iter()
        .map(|snippet| {
            format!(
                "<pre class=\"example-snippet\">{}</pre>",
                snippet
                    .iter()
                    .map(|l| nassim_escape(l))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Minimal text escaping for generated content (mirrors
/// `nassim_html::entities::encode_text`, duplicated to avoid a dependency
/// cycle — datasets must not depend on the parser stack).
fn nassim_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn preface_page(style: &VendorStyle) -> ManualPage {
    let html = format!(
        r#"<html><head><title>{model} Command Reference</title></head><body>
<h1 class="book-title">{model} Command Reference</h1>
<div class="preface">
<p>Conventions: braces {{ }} group required choices separated by vertical bars.
Square brackets [ ] enclose optional elements. Italic text indicates arguments
for which you supply values.</p>
</div></body></html>"#,
        model = style.device_model
    );
    ManualPage {
        url: format!("manual://{}/preface", style.name),
        command_key: String::new(),
        html,
    }
}

/// Cirrus (Cisco-like): flat class-addressed paragraphs.
fn render_cirrus(
    style: &VendorStyle,
    _catalog: &Catalog,
    cmd: &CatalogCommand,
    cli_forms: &[String],
    examples: &[Vec<String>],
    rng: &mut StdRng,
) -> String {
    let clis_class = style.clis_class(rng.gen::<f64>());
    let clis_html = cli_forms
        .iter()
        .map(|f| format!(r#"<p class="{clis_class}">{}</p>"#, render_cli_spans(style, f, rng)))
        .collect::<Vec<_>>()
        .join("\n");
    let params_html = para_rows(style, cmd)
        .iter()
        .map(|(name, desc)| {
            format!(
                r#"<p class="{pd}"><span class="{ps}">{name}</span> &mdash; {desc}</p>"#,
                pd = style.css.para_def,
                ps = style.css.param_span[0],
                desc = nassim_escape(desc)
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        r#"<html><body>
<h2 class="pCT_CmdTitle">{title}</h2>
{clis_html}
<p class="{func}">{func_text}</p>
{views_html}
{params_html}
{examples}
</body></html>"#,
        title = cmd.key,
        func = style.css.func_def,
        func_text = nassim_escape(&style.render_func(&cmd.func)),
        views_html = view_names(style, cmd)
            .iter()
            .map(|v| format!(r#"<p class="{}">{v}</p>"#, style.css.parent_views))
            .collect::<Vec<_>>()
            .join("\n"),
        examples = examples_pre(examples),
    )
}

/// Helix (Huawei-like): `sectiontitle` headers with label text, content in
/// following siblings (the Table-1 Huawei pattern).
fn render_helix(
    style: &VendorStyle,
    _catalog: &Catalog,
    cmd: &CatalogCommand,
    cli_forms: &[String],
    examples: &[Vec<String>],
    rng: &mut StdRng,
) -> String {
    let clis_html = cli_forms
        .iter()
        .map(|f| format!(r#"<p class="cmd-line">{}</p>"#, render_cli_spans(style, f, rng)))
        .collect::<Vec<_>>()
        .join("\n");
    let params_html = para_rows(style, cmd)
        .iter()
        .map(|(name, desc)| {
            format!(
                r#"<p class="para-line"><span class="{ps}">{name}</span>: {desc}</p>"#,
                ps = style.css.param_span[0],
                desc = nassim_escape(desc)
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        r#"<html><body>
<h2 class="cmd-title">{title}</h2>
<div class="sectiontitle">Format</div>
{clis_html}
<div class="sectiontitle">Function</div>
<p class="func-line">{func_text}</p>
<div class="sectiontitle">Views</div>
{views_html}
<div class="sectiontitle">Parameters</div>
{params_html}
<div class="sectiontitle">Examples</div>
{examples}
</body></html>"#,
        title = cmd.key,
        func_text = nassim_escape(&style.render_func(&cmd.func)),
        views_html = view_names(style, cmd)
            .iter()
            .map(|v| format!(r#"<p class="view-line">{v}</p>"#))
            .collect::<Vec<_>>()
            .join("\n"),
        examples = examples_pre(examples),
    )
}

/// Norsk (Nokia-like): header-classed sections, explicit context path,
/// no examples.
fn render_norsk(
    style: &VendorStyle,
    catalog: &Catalog,
    cmd: &CatalogCommand,
    cli_forms: &[String],
    rng: &mut StdRng,
) -> String {
    // Context paths: one per working view (root → … → view).
    let context_for = |view_key: &str| -> String {
        let mut path = vec![style.view_name("system")];
        let mut chain_views: Vec<String> = Vec::new();
        let mut cur = view_key.to_string();
        while cur != "system" {
            chain_views.push(cur.clone());
            match catalog.view(&cur) {
                Some(v) => cur = v.parent.clone(),
                None => break,
            }
        }
        for v in chain_views.iter().rev() {
            path.push(style.view_name(v));
        }
        path.join(" > ")
    };
    let context_html = std::iter::once(cmd.view.as_str())
        .chain(cmd.also_views.iter().map(String::as_str))
        .map(|v| format!(r#"<p class="CmdContext">{}</p>"#, context_for(v)))
        .collect::<Vec<_>>()
        .join("\n");
    // Nokia-style manuals are organised as an explicit command tree: a
    // container command's page states which context it opens.
    let tree_html = match &cmd.opens {
        Some(v) => format!(
            "<h3 class=\"TreeHeader\">Tree</h3>\n<p class=\"CmdTree\">Enters: {}</p>\n",
            style.view_name(v)
        ),
        None => String::new(),
    };
    let clis_html = cli_forms
        .iter()
        .map(|f| format!(r#"<p class="CmdSyntax">{}</p>"#, render_cli_spans(style, f, rng)))
        .collect::<Vec<_>>()
        .join("\n");
    let params_html = para_rows(style, cmd)
        .iter()
        .map(|(name, desc)| {
            format!(
                r#"<dt class="ParamName"><span class="{ps}">{name}</span></dt><dd class="ParamDesc">{desc}</dd>"#,
                ps = style.css.param_span[0],
                desc = nassim_escape(desc)
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        r#"<html><body>
<h2 class="CmdTitle">{title}</h2>
<h3 class="{syn}">Syntax</h3>
{clis_html}
<h3 class="{ctx}">Context</h3>
{context_html}
{tree_html}<h3 class="{desc}">Description</h3>
<p class="CmdDescription">{func_text}</p>
<h3 class="{par}">Parameters</h3>
<dl class="ParamList">
{params_html}
</dl>
</body></html>"#,
        title = cmd.key,
        syn = style.css.clis,
        ctx = style.css.parent_views,
        desc = style.css.func_def,
        par = style.css.para_def,
        func_text = nassim_escape(&style.render_func(&cmd.func)),
    )
}

/// H4C (H3C-like): one `Command` class for every section, discriminated by
/// a bold header inside.
fn render_h4c(
    style: &VendorStyle,
    _catalog: &Catalog,
    cmd: &CatalogCommand,
    cli_forms: &[String],
    examples: &[Vec<String>],
    rng: &mut StdRng,
) -> String {
    let clis_html = cli_forms
        .iter()
        .map(|f| format!(r#"<p class="cmd-syntax">{}</p>"#, render_cli_spans(style, f, rng)))
        .collect::<Vec<_>>()
        .join("\n");
    let params_html = para_rows(style, cmd)
        .iter()
        .map(|(name, desc)| {
            format!(
                r#"<p class="cmd-param"><span class="{ps}">{name}</span>: {desc}</p>"#,
                ps = style.css.param_span[0],
                desc = nassim_escape(desc)
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    let cls = style.css.clis; // "Command" for every section
    format!(
        r#"<html><body>
<h2 class="cmd-title">{title}</h2>
<div class="{cls}"><b>Syntax</b>
{clis_html}
</div>
<div class="{cls}"><b>View</b>
{views_html}
</div>
<div class="{cls}"><b>Parameters</b>
{params_html}
</div>
<div class="{cls}"><b>Description</b>
<p class="cmd-desc">{func_text}</p>
</div>
<div class="{cls}"><b>Examples</b>
{examples}
</div>
</body></html>"#,
        title = cmd.key,
        views_html = view_names(style, cmd)
            .iter()
            .map(|v| format!(r#"<p class="cmd-view">{v}</p>"#))
            .collect::<Vec<_>>()
            .join("\n"),
        func_text = nassim_escape(&style.render_func(&cmd.func)),
        examples = examples_pre(examples),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::style::vendor;

    fn small_manual(vendor_name: &str, seed: u64) -> Manual {
        let cat = Catalog::base();
        let style = vendor(vendor_name).unwrap();
        generate(
            &style,
            &cat,
            &GenOptions {
                seed,
                scale_extra: 0,
                syntax_error_rate: 0.05,
                ambiguity_rate: 0.15,
                examples_per_page: 1,
            },
        )
    }

    #[test]
    fn one_page_per_command_plus_preface() {
        let m = small_manual("helix", 1);
        assert_eq!(m.pages.len(), m.catalog.commands.len() + 1);
        assert!(m.pages[0].url.ends_with("/preface"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_manual("cirrus", 7);
        let b = small_manual("cirrus", 7);
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(&b.pages) {
            assert_eq!(pa.html, pb.html, "page {} differs", pa.url);
        }
        assert_eq!(a.defects, b.defects);
    }

    #[test]
    fn different_seeds_inject_different_defects() {
        let a = small_manual("helix", 1);
        let b = small_manual("helix", 2);
        assert_ne!(a.defects, b.defects);
    }

    #[test]
    fn cli_text_has_no_angle_brackets_in_html() {
        // Appendix B: parameters are font-marked, not bracketed, in RTF.
        let m = small_manual("helix", 3);
        for page in &m.pages[1..] {
            // Raw text "<ipv4-address>" must not appear; the span-marked
            // name must.
            assert!(
                !page.html.contains("&lt;ipv4-address&gt;"),
                "{} leaks bracketed params",
                page.url
            );
        }
    }

    #[test]
    fn injected_syntax_errors_really_break_parsing() {
        let m = small_manual("cirrus", 11);
        assert!(m.injected_syntax_errors() > 0, "seed produced no errors");
        // Ground truth says which pages are corrupted; spot-check the math
        // is internally consistent.
        for d in &m.defects {
            if let InjectedDefect::SyntaxError { page_url, .. } = d {
                assert!(m.pages.iter().any(|p| &p.url == page_url));
            }
        }
    }

    #[test]
    fn examples_show_opener_chain_with_indentation() {
        let m = small_manual("helix", 5);
        // Find the bgp.peer-as page; its snippet must contain an indented
        // peer line under a bgp opener line.
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.peer-as")
            .unwrap();
        assert!(page.html.contains("example-snippet"));
        assert!(page.html.contains("\n peer "), "no indented instance:\n{}", page.html);
        assert!(page.html.contains("bgp "));
    }

    #[test]
    fn norsk_has_context_instead_of_examples() {
        let m = small_manual("norsk", 5);
        assert!(m.ambiguous_views().is_empty(), "norsk must not get ambiguity injection");
        let page = m
            .pages
            .iter()
            .find(|p| p.command_key == "bgp.af-pref")
            .unwrap();
        assert!(page.html.contains("CmdContext"));
        assert!(page.html.contains("configure &gt; configure BGP") || page.html.contains("configure > configure BGP"),
            "context path missing:\n{}", page.html);
        assert!(!page.html.contains("example-snippet"));
    }

    #[test]
    fn ambiguous_views_recorded_and_only_for_example_vendors() {
        let cat = Catalog::base();
        let style = vendor("helix").unwrap();
        let m = generate(
            &style,
            &cat,
            &GenOptions {
                seed: 13,
                ambiguity_rate: 0.5,
                ..GenOptions::default()
            },
        );
        assert!(!m.ambiguous_views().is_empty(), "seed produced no ambiguity");
        for v in m.ambiguous_views() {
            assert!(m.catalog.view(v).is_some());
        }
    }

    #[test]
    fn scale_option_grows_page_count() {
        let cat = Catalog::with_scale(300);
        let style = vendor("helix").unwrap();
        let m = generate(&style, &cat, &GenOptions::default());
        assert!(m.pages.len() > 300);
    }
}
