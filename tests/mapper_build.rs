//! Golden fixtures for mapper construction.
//!
//! The fixtures under `tests/fixtures/mapper_build/` pin everything a
//! mapper build produces, recorded from the build that fitted TF-IDF for
//! every strategy, deduplicated embedding misses by a linear scan per
//! miss and assigned k-means points with one scalar dot per centroid:
//!
//! * `ann-section.json` — the artifact store's rendered `ann` section
//!   after a DL mapper over a seeded `udmgen` corpus of
//!   [`SYNTHETIC_LEAVES`] synthetic leaves (plus the catalog's own) built
//!   its sub-linear index through the store, with the daemon's
//!   [`DemoEmbedder`];
//! * `retrieval-stats.txt` — that mapper's leaf count and IVF `nlist`;
//! * `rankings-<mode>.tsv` — top-[`K`] `(path, score bits)` for
//!   [`QUERY_COUNT`] fixed queries in the `exact`, `quantized` and `ann`
//!   retrieval modes of that mapper, and from `Mapper::ir` and
//!   `Mapper::ir_dl` over the daemon's catalog UDM.
//!
//! A build change that moves one centroid bit, one cluster member or one
//! score bit fails here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim::ArtifactStore;
use nassim_datasets::catalog::Catalog;
use nassim_datasets::udmgen;
use nassim_datasets::words::{ATTR_WORDS, FEATURE_WORDS, OBJECT_WORDS};
use nassim_mapper::{Context, Mapper, RetrievalMode};
use nassim_serve::state::DEMO_EMBEDDER_ID;
use nassim_serve::{DemoEmbedder, DEMO_SEED};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Synthetic leaves of the large corpus: enough for an IVF layer with a
/// few dozen clusters.
const SYNTHETIC_LEAVES: usize = 5_000;
/// Fixed queries per ranking fixture.
const QUERY_COUNT: usize = 32;
/// Ranking depth per query.
const K: usize = 10;
/// IR shortlist of the IR+DL composite (the paper's 50).
const SHORTLIST: usize = 50;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/mapper_build")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Compare rendered text against a fixture, reporting the first byte
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
        String::from_utf8_lossy(&b[at.saturating_sub(60)..(at + 60).min(b.len())]).into_owned()
    };
    panic!(
        "{name}: bytes diverge at offset {at} ({} vs {} bytes)\n got: {:?}\nwant: {:?}",
        got.len(),
        want.len(),
        window(got),
        window(&want),
    );
}

/// The daemon's demo UDM with `synthetic` extra leaves.
fn udm(synthetic: usize) -> nassim_corpus::Udm {
    udmgen::generate(
        &Catalog::base(),
        &udmgen::UdmGenOptions {
            seed: DEMO_SEED,
            paraphrase_strength: 0.6,
            distractors: 8,
            synthetic_leaves: synthetic,
        },
    )
    .udm
}

/// Queries drawn from the generator's own vocabulary, so every ranking
/// is non-trivial.
fn queries() -> Vec<Context> {
    (0..QUERY_COUNT)
        .map(|i| {
            let attr = ATTR_WORDS[(i * 13 + 5) % ATTR_WORDS.len()];
            let obj = OBJECT_WORDS[(i * 7 + 3) % OBJECT_WORDS.len()];
            let feat = FEATURE_WORDS[i % FEATURE_WORDS.len()];
            Context {
                sequences: vec![
                    attr.to_string(),
                    format!("the {attr} of the {obj} object"),
                    format!("{feat} plane configuration"),
                ],
            }
        })
        .collect()
}

/// One line per ranked leaf: query index, rank, UDM path, score bits.
fn rankings(mapper: &Mapper, queries: &[Context]) -> String {
    let mut out = String::new();
    for (qi, q) in queries.iter().enumerate() {
        for (rank, (leaf, score)) in mapper.recommend(q, K).into_iter().enumerate() {
            let path = mapper.udm().path_of(leaf);
            writeln!(out, "{qi}\t{rank}\t{path}\t{:08x}", score.to_bits()).unwrap();
        }
    }
    out
}

#[test]
fn dl_build_at_scale_matches_its_golden_index_and_rankings() {
    let udm = udm(SYNTHETIC_LEAVES);
    let mut store = ArtifactStore::new();
    let mapper = store.mapper_dl_sublinear(
        &udm,
        Arc::new(DemoEmbedder::default()),
        DEMO_EMBEDDER_ID,
        RetrievalMode::Ann { probes: 0 },
    );
    let section = store.ann.rendered_section(serde_json::to_string).unwrap();
    check("ann-section.json", &section.text);

    let stats = mapper.retrieval_stats();
    assert!(
        stats.nlist > 0,
        "no IVF layer at {} leaves",
        stats.leaf_count
    );
    check(
        "retrieval-stats.txt",
        &format!("leaf_count={}\nnlist={}\n", stats.leaf_count, stats.nlist),
    );

    let queries = queries();
    for (name, mode) in [
        ("exact", RetrievalMode::Exact),
        ("quantized", RetrievalMode::Quantized),
        ("ann", RetrievalMode::Ann { probes: 0 }),
    ] {
        let m = mapper.with_retrieval_mode(mode);
        assert_eq!(m.retrieval_mode(), mode);
        check(&format!("rankings-{name}.tsv"), &rankings(&m, &queries));
    }
}

#[test]
fn ir_builds_on_the_catalog_udm_match_their_golden_rankings() {
    let udm = udm(0);
    let queries = queries();
    check("rankings-ir.tsv", &rankings(&Mapper::ir(&udm), &queries));
    let ir_dl = Mapper::ir_dl(&udm, Arc::new(DemoEmbedder::default()), SHORTLIST);
    check("rankings-ir-dl.tsv", &rankings(&ir_dl, &queries));
}
