//! Incremental re-assimilation benchmark — the artifact-store payoff.
//!
//! For each of the four vendor styles at its Table-4 scale, this bin
//! warms an [`ArtifactStore`] on the published manual, applies seeded
//! modify-only [`EditPlan`]s at 1%, 10% and 50% of the page count, and
//! re-assimilates the revision twice: cold ([`assimilate_with`] plus an
//! uncached [`Mapper::dl`]) and incrementally ([`assimilate_incremental`]
//! plus [`ArtifactStore::mapper_dl`]). Each pair is checked for
//! **bit-for-bit equality** — VDM, syntax audit, diagnostics, parsed
//! pages and mapper top-k rankings with their score bits — and the store
//! counters prove clean pages were served, not re-parsed. Per vendor it
//! also records mapper quality (recall@k / MRR over the alignment ground
//! truth) and drives a save → load → query round trip whose rankings
//! must match the in-memory store's.
//!
//! Writes `BENCH_assimilation_suite.json` and exits non-zero if (a) a
//! vendor is missing, (b) any full/incremental pair diverges bitwise,
//! (c) any round trip changes a ranking, or (d) — on multi-core
//! hardware, outside smoke mode — the helix 1%-edit incremental run is
//! under its 5× speedup floor (thresholds in
//! [`nassim_bench::gates::assimilation_suite`]). `--smoke` caps the
//! manual scale for quick CI lanes; the equality gates stay armed there,
//! the wall-clock floor reports only.

use nassim::diag::NassimError;
use nassim::pipeline::{assimilate_with, Assimilation};
use nassim::{assimilate_incremental, ArtifactStore};
use nassim_bench::fixtures::{vendor_scale, SEED};
use nassim_bench::gates::assimilation_suite as gates;
use nassim_bench::report::{time_ms, Report};
use nassim_corpus::fnv1a_str;
use nassim_datasets::{
    apply_edit_plan, catalog::Catalog, manualgen, style, udmgen, EditPlan, Manual,
};
use nassim_html::IngestBudget;
use nassim_mapper::context::{udm_leaf_context, vdm_param_context, vdm_param_refs};
use nassim_mapper::eval::resolve_cases;
use nassim_mapper::{evaluate, Embedder, Mapper};
use nassim_nlp::{BatchEncoder, Encoder, EncoderConfig, Vocab};
use nassim_parser::parser_for;
use std::sync::Arc;

/// Manual-scale cap in smoke mode (CI quick lane).
const SMOKE_SCALE: usize = 60;
/// Edit rates measured per vendor: 1% is the "vendor shipped a touch-up"
/// case the acceptance gate reads, 50% the worst realistic revision.
const EDIT_RATES: [f64; 3] = [0.01, 0.10, 0.50];
/// Top-k rankings compared per equality check.
const TOPK_QUERIES: usize = 20;

#[derive(serde::Serialize)]
struct RateRecord {
    rate: f64,
    edited_commands: usize,
    dirty_pages: usize,
    clean_pages: usize,
    full_ms: f64,
    incremental_ms: f64,
    speedup: f64,
    /// VDM + syntax + diagnostics + parsed pages + top-k score bits.
    bitwise_match: bool,
    page_hits: usize,
    page_misses: usize,
}

#[derive(serde::Serialize)]
struct MapperRecord {
    eval_cases: usize,
    recall_at_1: f64,
    recall_at_10: f64,
    mrr: f64,
    embed_hits: usize,
    embed_misses: usize,
    roundtrip_match: bool,
}

#[derive(serde::Serialize)]
struct VendorRecord {
    vendor: String,
    scale_extra: usize,
    pages: usize,
    warm_ms: f64,
    rates: Vec<RateRecord>,
    mapper: MapperRecord,
}

#[derive(serde::Serialize)]
struct SuiteBench {
    seed: u64,
    smoke: bool,
    vendors: Vec<VendorRecord>,
}

/// Top-k rankings over the first [`TOPK_QUERIES`] VDM parameter
/// contexts, scores reduced to bit patterns for exact comparison.
fn topk_bits(mapper: &Mapper, a: &Assimilation) -> Vec<Vec<(u32, u32)>> {
    vdm_param_refs(&a.build.vdm)
        .iter()
        .take(TOPK_QUERIES)
        .map(|pref| {
            let ctx = vdm_param_context(&a.build.vdm, pref);
            mapper
                .recommend(&ctx, 10)
                .into_iter()
                .map(|(leaf, score)| (leaf.0 as u32, score.to_bits()))
                .collect()
        })
        .collect()
}

/// Bit-for-bit equality over everything but wall-clock stats.
fn assimilations_match(full: &Assimilation, inc: &Assimilation) -> bool {
    full.build.vdm == inc.build.vdm
        && full.build.unplaced_pages == inc.build.unplaced_pages
        && full.syntax == inc.syntax
        && full.diagnostics == inc.diagnostics
        && full.parse.pages == inc.parse.pages
}

fn page_refs(m: &Manual) -> Vec<(&str, &str)> {
    m.pages
        .iter()
        .map(|p| (p.url.as_str(), p.html.as_str()))
        .collect()
}

fn run_vendor(
    vendor: &str,
    smoke: bool,
    budget: &IngestBudget,
) -> Result<VendorRecord, Box<dyn std::error::Error>> {
    let extra = if smoke {
        vendor_scale(vendor).min(SMOKE_SCALE)
    } else {
        vendor_scale(vendor)
    };
    let catalog = Catalog::with_scale(extra);
    let st = style::vendor(vendor)?;
    let opts = manualgen::GenOptions {
        seed: SEED ^ fnv1a_str(vendor),
        scale_extra: extra,
        syntax_error_rate: 0.004,
        ambiguity_rate: 0.03,
        examples_per_page: 1,
    };
    let base = manualgen::generate(&st, &catalog, &opts);
    let parser = parser_for(vendor)?;
    let udm_data = udmgen::generate(
        &catalog,
        &udmgen::UdmGenOptions {
            seed: SEED,
            paraphrase_strength: 0.85,
            distractors: if smoke { 20 } else { 150 },
            synthetic_leaves: 0,
        },
    );
    let udm = &udm_data.udm;

    // The paper's mapper embeds through NetBERT — leaf-context encoding
    // is the expensive artifact the store caches, so the bench pays the
    // real encoder cost, not a toy hash embedder's. Each timed run gets
    // a *fresh* `BatchEncoder` (cold memo): only the artifact store may
    // carry embeddings across runs.
    let leaf_texts: Vec<String> = udm
        .leaves()
        .iter()
        .flat_map(|&leaf| udm_leaf_context(udm, leaf).sequences)
        .collect();
    let vocab = Vocab::build(leaf_texts.iter().map(String::as_str), 1);
    let encoder = Encoder::new(EncoderConfig::small(vocab.len()), SEED);
    let fresh_embedder = || -> Arc<dyn Embedder> {
        Arc::new(BatchEncoder::new(encoder.clone(), vocab.clone()))
    };
    let embedder_id = format!("netbert-small-{SEED}");

    // Warm a store per edit rate (each rate diffs against the pristine
    // manual, not against the previous rate's revision).
    let mut rates = Vec::new();
    let mut warm_ms_total = 0.0;
    let mut last_store: Option<(ArtifactStore, Assimilation)> = None;
    for (ri, &rate) in EDIT_RATES.iter().enumerate() {
        let mut store = ArtifactStore::new();
        let (warm, warm_ms) = time_ms(|| {
            let a = assimilate_incremental(parser.as_ref(), page_refs(&base), budget, &mut store)?;
            store.mapper_dl(udm, fresh_embedder(), &embedder_id);
            Ok::<Assimilation, NassimError>(a)
        });
        let _warm = warm?;
        warm_ms_total += warm_ms;

        let k = ((base.pages.len() as f64 * rate).round() as usize).max(1);
        let plan = EditPlan::modify_only(SEED ^ (ri as u64), k);
        let (revised_cat, report) = apply_edit_plan(&catalog, &plan);
        let revised = manualgen::generate(&st, &revised_cat, &opts);
        let dirty = revised
            .pages
            .iter()
            .zip(&base.pages)
            .filter(|(a, b)| a.url != b.url || a.html != b.html)
            .count();

        let hits_before = store.stats.page_hits;
        let misses_before = store.stats.page_misses;
        let full_embedder = fresh_embedder();

        let (full_pair, full_ms) = time_ms(|| {
            let a = assimilate_with(parser.as_ref(), page_refs(&revised), budget)?;
            let m = Mapper::dl(udm, full_embedder.clone());
            Ok::<(Assimilation, Mapper), NassimError>((a, m))
        });
        let (full, full_mapper) = full_pair?;
        let (inc_pair, inc_ms) = time_ms(|| {
            let a =
                assimilate_incremental(parser.as_ref(), page_refs(&revised), budget, &mut store)?;
            let m = store.mapper_dl(udm, fresh_embedder(), &embedder_id);
            Ok::<(Assimilation, Mapper), NassimError>((a, m))
        });
        let (inc, inc_mapper) = inc_pair?;

        let bitwise_match = assimilations_match(&full, &inc)
            && topk_bits(&full_mapper, &full) == topk_bits(&inc_mapper, &inc);
        let rec = RateRecord {
            rate,
            edited_commands: report.modified.len(),
            dirty_pages: dirty,
            clean_pages: revised.pages.len() - dirty,
            full_ms,
            incremental_ms: inc_ms,
            speedup: full_ms / inc_ms.max(1e-9),
            bitwise_match,
            page_hits: store.stats.page_hits - hits_before,
            page_misses: store.stats.page_misses - misses_before,
        };
        println!(
            "  {vendor} @ {:>4.0}% edits: full {full_ms:>8.1} ms | incremental {inc_ms:>8.1} ms => {:.2}x ({} dirty / {} pages, bitwise={})",
            rate * 100.0,
            rec.speedup,
            dirty,
            revised.pages.len(),
            bitwise_match
        );
        if ri == EDIT_RATES.len() - 1 {
            last_store = Some((store, inc));
        }
        rates.push(rec);
    }

    // Mapper quality + the save -> load -> query round trip, on the last
    // rate's warm store.
    let (mut store, last_inc) = last_store.ok_or("no rate was measured")?;
    let mapper = store.mapper_dl(udm, fresh_embedder(), &embedder_id);
    let annotations: Vec<(String, String, String)> = udm_data
        .alignment
        .iter()
        .map(|a| (a.command_key.clone(), st.param(&a.canonical_param), a.udm_path.clone()))
        .collect();
    let cases = resolve_cases(&last_inc.build.vdm, udm, &annotations);
    let eval = evaluate(&mapper, &cases, &[1, 10]);

    let path = std::env::temp_dir().join(format!("nassim-suite-{vendor}.json"));
    store.save(&path)?;
    let mut loaded = ArtifactStore::load(&path)?;
    let reloaded = loaded.mapper_dl(udm, fresh_embedder(), &embedder_id);
    let roundtrip_match =
        loaded.embeddings.misses == 0 && topk_bits(&mapper, &last_inc) == topk_bits(&reloaded, &last_inc);
    std::fs::remove_file(&path).ok();

    Ok(VendorRecord {
        vendor: vendor.to_string(),
        scale_extra: extra,
        pages: base.pages.len(),
        warm_ms: warm_ms_total,
        rates,
        mapper: MapperRecord {
            eval_cases: eval.cases,
            recall_at_1: eval.recall.get(&1).copied().unwrap_or(0.0),
            recall_at_10: eval.recall.get(&10).copied().unwrap_or(0.0),
            mrr: eval.mrr,
            embed_hits: store.embeddings.hits,
            embed_misses: store.embeddings.misses,
            roundtrip_match,
        },
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report = Report::new("assimilation_suite");
    let smoke = report.smoke();
    let budget = IngestBudget::default();

    println!(
        "Assimilation suite: smoke={smoke}, {} hardware threads",
        report.hardware_threads()
    );
    let mut vendors = Vec::new();
    for vendor in style::VENDORS {
        vendors.push(run_vendor(vendor, smoke, &budget)?);
    }

    report.gate(&gates::VENDORS, vendors.len());
    for v in &vendors {
        for r in &v.rates {
            let at = format!("{}@{:.0}%", v.vendor, r.rate * 100.0);
            report.gate_at(&gates::BITWISE_MATCH, at, r.bitwise_match);
        }
        report.gate_at(&gates::ROUNDTRIP_MATCH, &v.vendor, v.mapper.roundtrip_match);
    }
    let helix_1pct = vendors
        .iter()
        .find(|v| v.vendor == "helix")
        .and_then(|v| v.rates.iter().find(|r| (r.rate - 0.01).abs() < 1e-9))
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    report.gate(&gates::INCREMENTAL_SPEEDUP_1PCT, helix_1pct);
    report.finish(&SuiteBench {
        seed: SEED,
        smoke,
        vendors,
    })
}
