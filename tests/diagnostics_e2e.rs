//! Cross-crate integration: the fallible pipeline. A manual carrying
//! injected syntax errors *plus* a hand-broken unparseable page must
//! assimilate end to end without panicking, every defect surfacing as a
//! structured diagnostic with stage, severity and source span, while the
//! healthy pages still produce their CLI-view pairs.
// Test fixtures: unwrap/expect outside #[test] fns (helpers) are fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::diag::{DiagReport, Severity, Stage};
use nassim::parser::parser_for;
use nassim::pipeline::assimilate;

const GARBAGE_URL: &str = "https://manuals.example/helix/broken-page.html";

/// A seeded defective manual plus one page of markup rubble.
fn defective_manual(ambiguity_rate: f64) -> manualgen::Manual {
    let st = style::vendor("helix").unwrap();
    let mut m = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 400,
            syntax_error_rate: 0.08,
            ambiguity_rate,
            ..Default::default()
        },
    );
    assert!(m.injected_syntax_errors() > 0, "seed produced no errors");
    m.pages.push(manualgen::ManualPage {
        url: GARBAGE_URL.to_string(),
        command_key: String::new(),
        html: "<div class=\"sectiontitle\">Format</div><p>vlan <b class=\"trunc".to_string(),
    });
    m
}

#[test]
fn damaged_pages_become_diagnostics_not_aborts() {
    let m = defective_manual(0.0);
    let healthy_pages = m.catalog.commands.len();
    let a = assimilate(
        parser_for("helix").unwrap().as_ref(),
        m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )
    .unwrap();

    // The garbage page surfaces with its URL and a byte-offset span…
    let on_garbage: Vec<_> = a
        .diagnostics
        .diagnostics
        .iter()
        .filter(|d| d.span.as_ref().is_some_and(|s| s.source == GARBAGE_URL))
        .collect();
    assert!(
        !on_garbage.is_empty(),
        "garbage page missing from diagnostics:\n{}",
        a.diagnostics.render_human()
    );
    assert!(on_garbage.iter().any(|d| d.stage == Stage::Html));

    // …the injected syntax errors surface as spanned syntax diagnostics…
    assert!(
        a.diagnostics
            .for_stage(Stage::Syntax)
            .any(|d| d.span.is_some()),
        "no spanned syntax diagnostics:\n{}",
        a.diagnostics.render_human()
    );

    // …and the rest of the manual still assimilates: every healthy
    // command contributes at least one CLI-view pair.
    assert!(
        a.build.vdm.cli_view_pairs() >= healthy_pages,
        "only {} pairs from {healthy_pages} commands",
        a.build.vdm.cli_view_pairs()
    );
}

#[test]
fn diagnostics_sort_by_severity_and_round_trip_json() {
    // Without and with planted ambiguities, so ambiguity diagnostics
    // round-trip too.
    for ambiguity_rate in [0.0, 0.05] {
        let m = defective_manual(ambiguity_rate);
        let a = assimilate(
            parser_for("helix").unwrap().as_ref(),
            m.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        )
        .unwrap();
        if ambiguity_rate > 0.0 {
            assert!(
                a.diagnostics.for_stage(Stage::Hierarchy).next().is_some(),
                "planted ambiguities produced no hierarchy diagnostics"
            );
        }
        let report = a.report("Helix/NE40E/2021", None);

        // Errors lead, warnings follow.
        let severities: Vec<Severity> = report
            .diagnostics
            .diagnostics
            .iter()
            .map(|d| d.severity)
            .collect();
        let mut sorted = severities.clone();
        sorted.sort();
        assert_eq!(severities, sorted, "diagnostics not sorted by severity");

        // JSON round-trip preserves every record.
        let json = report.diagnostics.to_json();
        let back = DiagReport::from_json(&json).unwrap();
        assert_eq!(report.diagnostics, back);

        // The human rendering names stages and spans.
        let human = report.diagnostics.render_human();
        assert!(human.contains("[syntax]"), "{human}");
        assert!(human.contains("-->"), "{human}");
    }
}
