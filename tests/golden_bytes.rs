//! Byte-identity golden fixtures for every durable or wire format the
//! vendored JSON codec renders.
//!
//! The fixtures under `tests/fixtures/golden_bytes/` were recorded from
//! the original `Value`-cloning codec:
//!
//! * `store-<stage>.json` — a job's [`ArtifactStore`] saved after each of
//!   the four submit stages (parse, syntax, hierarchy, build) of a small
//!   seeded `manualgen` manual, exactly as `submit-manual` persists it;
//! * `journal.log` — [`JournalRecord::to_line`] for a `submit-manual`
//!   whose pages hold quotes, backslashes, every control character below
//!   0x20 and multi-byte UTF-8, plus its stage and done records;
//! * `protocol.lines` — [`Request::to_line`] for the same submission and
//!   a few other requests, and the reply framings;
//! * `escaped-input.line` / `escaped-canonical.line` — a hand-written
//!   request that spells its strings with every escape the parser
//!   accepts (`\/`, `\b`, `\f`, `\uXXXX` in both cases, a surrogate
//!   pair), and the canonical line it must re-render to.
//!
//! Any change to the codec, the store layout or the record framing that
//! moves a single byte fails here, and every fixture must still load or
//! parse back to the value it was rendered from.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::datasets::{catalog::Catalog, manualgen, style};
use nassim::html::IngestBudget;
use nassim::parser::parser_for;
use nassim::ArtifactStore;
use nassim_serve::protocol::{ok_line, progress_line};
use nassim_serve::{ErrKind, ErrReply, JournalRecord, Request};
use serde::Value;
use std::path::{Path, PathBuf};

/// Pages of the seeded manual the store fixtures assimilate.
const STORE_PAGES: usize = 12;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden_bytes")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Compare rendered bytes against a fixture, reporting the first byte
/// that differs with a little context on each side.
fn check(name: &str, got: &str) {
    let want = fixture(name);
    if got == want {
        return;
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let window = |s: &str| {
        let b = s.as_bytes();
        String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 40).min(b.len())]).into_owned()
    };
    panic!(
        "{name}: bytes diverge at offset {at} ({} vs {} bytes)\n got: {:?}\nwant: {:?}",
        got.len(),
        want.len(),
        window(got),
        window(&want),
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nassim-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manual_pages() -> Vec<(String, String)> {
    let st = style::vendor("cirrus").unwrap();
    let manual = manualgen::generate(
        &st,
        &Catalog::base(),
        &manualgen::GenOptions {
            seed: 77,
            ..Default::default()
        },
    );
    manual
        .pages
        .into_iter()
        .take(STORE_PAGES)
        .map(|p| (p.url, p.html))
        .collect()
}

/// Pages whose text exercises every escape class the writer emits, and
/// non-ASCII text on both sides of escapes.
fn tricky_pages() -> Vec<(String, String)> {
    let controls: String = (0u8..0x20).map(char::from).collect();
    vec![
        (
            "manual://golden/quotes".to_string(),
            r#"<p class="cli">say "hi" \ path\to\file \\ done \"</p>"#.to_string(),
        ),
        ("manual://golden/controls".to_string(), controls),
        (
            "manual://golden/utf8".to_string(),
            "<p>café 中文 😀 ₿ — ünïcödé</p>".to_string(),
        ),
        (
            "manual://golden/mixed/é".to_string(),
            "é\u{1}中\n😀\"\\\t/\u{7f}\u{1f}é".to_string(),
        ),
    ]
}

#[test]
fn store_saves_after_each_stage_are_byte_identical() {
    let dir = temp_dir("store");
    let pages = manual_pages();
    let refs: Vec<(&str, &str)> = pages
        .iter()
        .map(|(u, h)| (u.as_str(), h.as_str()))
        .collect();
    let parser = parser_for("cirrus").unwrap();
    let mut store = ArtifactStore::new();
    let path = dir.join("job.store.json");
    let save = |store: &ArtifactStore, stage: &str| {
        store.save_with(&path, None).unwrap();
        check(
            &format!("store-{stage}.json"),
            &std::fs::read_to_string(&path).unwrap(),
        );
    };

    let (parse, page_keys) = store
        .parse_stage(parser.as_ref(), refs, &IngestBudget::default())
        .unwrap();
    save(&store, "parse");
    store.syntax_stage(&parse);
    save(&store, "syntax");
    let derivation = store.hierarchy_stage(&parse, &page_keys);
    save(&store, "hierarchy");
    store.build_stage("cirrus", &parse, &page_keys, &derivation);
    save(&store, "build");

    // Every fixture loads strictly and re-saves to the same bytes.
    for stage in ["parse", "syntax", "hierarchy", "build"] {
        let name = format!("store-{stage}.json");
        let loaded = ArtifactStore::load(&fixture_path(&name)).unwrap();
        let resaved = dir.join(format!("resaved-{stage}.json"));
        loaded.save_with(&resaved, None).unwrap();
        check(&name, &std::fs::read_to_string(&resaved).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn journal_records() -> Vec<JournalRecord> {
    let job = "golden-1".to_string();
    vec![
        JournalRecord::Submitted {
            job: job.clone(),
            vendor: "cirrus".to_string(),
            deadline_ms: Some(1500),
            pages: tricky_pages(),
        },
        JournalRecord::Stage {
            job: job.clone(),
            stage: "parse".to_string(),
            key: "00c0ffee0ddba11a".to_string(),
        },
        JournalRecord::Done {
            job,
            result: Value::Obj(vec![
                ("vendor".to_string(), Value::Str("cirrus".to_string())),
                ("pages".to_string(), Value::Num(4.0)),
                ("ratio".to_string(), Value::Num(0.1)),
                ("tiny".to_string(), Value::Num(1.5e-7)),
                ("negative_zero".to_string(), Value::Num(-0.0)),
                ("big".to_string(), Value::Num(1e21)),
                ("edge".to_string(), Value::Num(9_007_199_254_740_993.0)),
                (
                    "below_edge".to_string(),
                    Value::Num(9_007_199_254_740_991.0),
                ),
                ("not_finite".to_string(), Value::Num(f64::NAN)),
                ("note".to_string(), Value::Str("é\"\\\u{0}😀".to_string())),
                (
                    "nested".to_string(),
                    Value::Arr(vec![
                        Value::Arr(vec![]),
                        Value::Obj(vec![]),
                        Value::Null,
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Num(-12.0),
                    ]),
                ),
            ]),
        },
    ]
}

#[test]
fn journal_lines_are_byte_identical() {
    let records = journal_records();
    let rendered: String = records.iter().map(|r| r.to_line() + "\n").collect();
    check("journal.log", &rendered);
    let want = fixture("journal.log");
    for (line, rec) in want.lines().zip(&records) {
        let back = JournalRecord::parse_line(line).unwrap();
        // The done payload holds a NaN, which renders as `null`; compare
        // it by re-rendering rather than by value.
        assert_eq!(back.to_line(), line);
        if !matches!(rec, JournalRecord::Done { .. }) {
            assert_eq!(&back, rec);
        }
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::SubmitManual {
            vendor: "cirrus".to_string(),
            pages: tricky_pages(),
            deadline_ms: Some(1500),
            job: Some("golden-1".to_string()),
        },
        Request::SubmitManual {
            vendor: "helix".to_string(),
            pages: manual_pages().into_iter().take(2).collect(),
            deadline_ms: None,
            job: None,
        },
        Request::QueryMapping {
            sequences: vec!["interface mtu".to_string(), "é \"q\"".to_string()],
            k: 10,
            deadline_ms: Some(250),
            mode: None,
        },
        Request::JobStatus {
            job: "golden-1".to_string(),
        },
        Request::Health,
    ]
}

#[test]
fn protocol_lines_are_byte_identical() {
    let requests = requests();
    let mut rendered: String = requests.iter().map(|r| r.to_line() + "\n").collect();
    for line in [
        ok_line(Value::Obj(vec![
            ("nodes".to_string(), Value::Num(42.0)),
            ("note".to_string(), Value::Str("tab\there".to_string())),
        ])),
        progress_line(Value::Obj(vec![(
            "stage".to_string(),
            Value::Str("parse".to_string()),
        )])),
        ErrReply::new(ErrKind::Malformed, "bad \"job\" \\ é\u{2}").to_line(),
    ] {
        rendered.push_str(&line);
        rendered.push('\n');
    }
    check("protocol.lines", &rendered);
    let want = fixture("protocol.lines");
    for (line, req) in want.lines().zip(&requests) {
        assert_eq!(&Request::parse(line).unwrap(), req);
    }
}

#[test]
fn escaped_input_parses_to_the_canonical_line() {
    let input = fixture("escaped-input.line");
    let req = Request::parse(input.trim_end_matches('\n')).unwrap();
    let Request::SubmitManual { pages, .. } = &req else {
        panic!("expected submit-manual, got {req:?}");
    };
    assert_eq!(pages[0].1, "a/b\u{8}\u{c}\n\r\t\"\\é😀é中 x");
    check("escaped-canonical.line", &(req.to_line() + "\n"));
}
