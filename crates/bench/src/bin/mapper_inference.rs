//! Tape-free inference engine benchmark — the mapper query path.
//!
//! Builds the Table-5 evaluation workload (helix manual → VDM, generated
//! UDM, resolved alignment cases) and replays the embed-call stream the
//! table's NetBERT column pair actually issues: **both** model variants
//! (`DL` and `IR+DL`) construct a `Mapper` (embedding every UDM leaf
//! context) and run `evaluate` (embedding every case context). Before
//! this engine each variant re-embedded everything through the autograd
//! tape; the batched path shares one `BatchEncoder`, so the second
//! variant's calls hit the memo. That stream runs through four regimes:
//!
//! 1. **tape** — `Encoder::embed_ids_tape`, the autograd forward pass
//!    (per-call parameter cloning onto the tape);
//! 2. **tape-free per-text** — `Encoder::embed_ids`, the allocation-free
//!    replay with per-call weight prep;
//! 3. **tape-free batched, serial** — [`BatchEncoder::embed_batch`]
//!    pinned to 1 worker (shared prepared weights, memo, scratch reuse);
//! 4. **tape-free batched, parallel** — the same at the fan-out count.
//!
//! Then the end-to-end mapper evaluation (DL model, recall@k) is timed
//! tape vs. batched. Writes `BENCH_mapper_inference.json` and exits
//! non-zero if (a) any batched embedding is not **bitwise identical** to
//! its tape twin, (b) the two evaluation reports disagree, (c) batched
//! tape-free is under the 3× speedup floor, or (d) on multi-core
//! hardware, batched-parallel embedding is under 1.5× batched-serial
//! (thresholds in [`nassim_bench::gates::mapper_inference`]). `--smoke`
//! caps the text count for CI; every gate stays armed there.

use nassim_bench::fixtures::SEED;
use nassim_bench::gates::mapper_inference as gates;
use nassim_bench::report::{time_ms, Report};
use nassim_datasets::{catalog::Catalog, manualgen, style, udmgen};
use nassim_mapper::context::udm_leaf_context;
use nassim_mapper::eval::resolve_cases;
use nassim_mapper::models::{Embedder, Mapper};
use nassim_mapper::{evaluate, EvalReport};
use nassim_nlp::{BatchEncoder, Encoder, EncoderConfig, Vocab};
use nassim::pipeline::assimilate;
use nassim_parser::parser_for;

/// Texts kept in smoke mode (CI gate): enough to exercise dedup, the
/// memo and both parallel paths while staying sub-second.
const SMOKE_TEXTS: usize = 48;
/// `Embedder` over the autograd tape — the pre-PR query path, kept as
/// the ground truth both gates compare against.
struct TapeEmbedder {
    encoder: Encoder,
    vocab: Vocab,
}

impl Embedder for TapeEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        self.encoder
            .embed_ids_tape(&self.vocab.encode(text, self.encoder.config.max_len))
    }

    /// Pin the batch to a serial per-text sweep: this regime *is* the
    /// baseline, so it must not borrow the chunked fan-out.
    fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        texts.iter().map(|t| self.embed(t)).collect()
    }
}

#[derive(serde::Serialize)]
struct EmbeddingTimings {
    tape_ms: f64,
    tape_free_per_text_ms: f64,
    tape_free_batched_serial_ms: f64,
    tape_free_batched_parallel_ms: f64,
    speedup_batched_vs_tape: f64,
    speedup_per_text_vs_tape: f64,
    speedup_parallel_vs_serial: f64,
}

#[derive(serde::Serialize)]
struct MapperTimings {
    eval_tape_ms: f64,
    eval_batched_ms: f64,
    speedup: f64,
    recall_at_1_tape: f64,
    recall_at_1_batched: f64,
    mrr_tape: f64,
    mrr_batched: f64,
    reports_match: bool,
}

#[derive(serde::Serialize)]
struct ParityGate {
    texts_checked: usize,
    bitwise_mismatches: usize,
    pass: bool,
}

#[derive(serde::Serialize)]
struct MemoReport {
    hits: u64,
    misses: u64,
    entries: usize,
}

#[derive(serde::Serialize)]
struct InferenceBench {
    seed: u64,
    smoke: bool,
    texts: usize,
    unique_texts: usize,
    eval_cases: usize,
    udm_leaves: usize,
    serial_threads: usize,
    parallel_threads: usize,
    embedding: EmbeddingTimings,
    mapper: MapperTimings,
    parity: ParityGate,
    memo: MemoReport,
}

fn reports_match(a: &EvalReport, b: &EvalReport) -> bool {
    a.cases == b.cases
        && a.mrr.to_bits() == b.mrr.to_bits()
        && a.recall.len() == b.recall.len()
        && a.recall
            .iter()
            .all(|(k, v)| b.recall.get(k).map(|w| v.to_bits() == w.to_bits()) == Some(true))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report = Report::new("mapper_inference");
    let smoke = report.smoke();

    // ── Table-5 workload: helix manual → VDM, generated UDM, cases. ──
    let catalog = Catalog::base();
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
    let st = style::vendor("helix")?;
    let manual = manualgen::generate(
        &st,
        &catalog,
        &manualgen::GenOptions {
            seed: SEED,
            syntax_error_rate: 0.0,
            ambiguity_rate: 0.0,
            ..Default::default()
        },
    );
    let parser = parser_for("helix")?;
    let vdm = assimilate(
        parser.as_ref(),
        manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
    )?
    .build
    .vdm;
    let annotations: Vec<(String, String, String)> = udm_data
        .alignment
        .iter()
        .map(|a| (a.command_key.clone(), st.param(&a.canonical_param), a.udm_path.clone()))
        .collect();
    let mut cases = resolve_cases(&vdm, udm, &annotations);
    if smoke {
        cases.truncate(SMOKE_TEXTS / 2);
    }

    // The embed-call stream the Table-5 evaluation issues per model
    // variant: Mapper construction embeds every UDM leaf context, then
    // evaluate embeds every case context. Two variants (DL, IR+DL) run
    // back to back, so the stream repeats once — exactly the calls the
    // tape path used to pay for twice.
    let leaves = udm.leaves();
    let mut leaf_texts: Vec<String> = Vec::new();
    for &leaf in &leaves {
        leaf_texts.extend(udm_leaf_context(udm, leaf).sequences);
    }
    let mut case_texts: Vec<String> = Vec::new();
    for case in &cases {
        case_texts.extend(case.context.sequences.iter().cloned());
    }
    if smoke {
        leaf_texts.truncate(SMOKE_TEXTS / 2);
        case_texts.truncate(SMOKE_TEXTS / 2);
    }
    let mut texts: Vec<String> = Vec::new();
    for _ in 0..2 {
        texts.extend(leaf_texts.iter().cloned());
        texts.extend(case_texts.iter().cloned());
    }
    let mut unique: Vec<&str> = texts.iter().map(String::as_str).collect();
    unique.sort_unstable();
    unique.dedup();

    let vocab = Vocab::build(texts.iter().map(String::as_str), 1);
    let encoder = Encoder::new(EncoderConfig::small(vocab.len()), SEED);
    let workers = nassim_exec::threads().max(4);
    println!(
        "Mapper inference: {} texts ({} unique), {} cases, {} leaves, smoke={smoke}",
        texts.len(),
        unique.len(),
        cases.len(),
        leaves.len()
    );

    // ── Embedding regimes. ────────────────────────────────────────────
    let (tape_embeds, tape_ms) = time_ms(|| {
        texts
            .iter()
            .map(|t| encoder.embed_ids_tape(&vocab.encode(t, encoder.config.max_len)))
            .collect::<Vec<_>>()
    });
    let (_, per_text_ms) = time_ms(|| {
        texts
            .iter()
            .map(|t| encoder.embed_ids(&vocab.encode(t, encoder.config.max_len)))
            .collect::<Vec<_>>()
    });
    // Fresh BatchEncoder per run: the memo must start cold to measure
    // honest single-pass cost.
    let (batched_embeds, batched_serial_ms) = nassim_exec::with_threads(1, || {
        let be = BatchEncoder::new(encoder.clone(), vocab.clone());
        let (r, ms) = time_ms(|| be.embed_batch(&texts));
        ((r, be.memo_stats()), ms)
    });
    let (batched_embeds, memo_stats) = batched_embeds;
    let (_, batched_parallel_ms) = nassim_exec::with_threads(workers, || {
        let be = BatchEncoder::new(encoder.clone(), vocab.clone());
        time_ms(|| be.embed_batch(&texts))
    });

    let embedding = EmbeddingTimings {
        tape_ms,
        tape_free_per_text_ms: per_text_ms,
        tape_free_batched_serial_ms: batched_serial_ms,
        tape_free_batched_parallel_ms: batched_parallel_ms,
        speedup_batched_vs_tape: tape_ms / batched_serial_ms.max(1e-9),
        speedup_per_text_vs_tape: tape_ms / per_text_ms.max(1e-9),
        speedup_parallel_vs_serial: batched_serial_ms / batched_parallel_ms.max(1e-9),
    };
    println!(
        "  embeddings: tape {tape_ms:.1} ms | per-text {per_text_ms:.1} ms | batched {batched_serial_ms:.1} ms (serial) / {batched_parallel_ms:.1} ms ({workers} workers) => {:.2}x vs tape",
        embedding.speedup_batched_vs_tape
    );

    // ── Parity gate: batched output must be bitwise-tape. ─────────────
    let mut mismatches = 0usize;
    for (a, b) in batched_embeds.iter().zip(&tape_embeds) {
        if a.len() != b.len()
            || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
        {
            mismatches += 1;
        }
    }
    let parity = ParityGate {
        texts_checked: texts.len(),
        bitwise_mismatches: mismatches,
        pass: mismatches == 0,
    };
    println!(
        "  parity: {}/{} embeddings bitwise-identical to tape",
        texts.len() - mismatches,
        texts.len()
    );

    // ── End-to-end Table-5 column pair, tape vs. batched. ─────────────
    // Both variants run per regime. The tape side pays full price twice
    // (each construction + evaluate re-embeds); the batched side shares
    // one `BatchEncoder`, so the IR+DL pass is almost entirely memo hits.
    let ks = [1usize, 10];
    let shortlist = 50; // paper's IR top-50 shortlist
    let tape_e: std::sync::Arc<dyn Embedder> = std::sync::Arc::new(TapeEmbedder {
        encoder: encoder.clone(),
        vocab: vocab.clone(),
    });
    let ((tape_dl, tape_irdl), eval_tape_ms) = nassim_exec::with_threads(1, || {
        time_ms(|| {
            let dl = evaluate(&Mapper::dl(udm, tape_e.clone()), &cases, &ks);
            let irdl = evaluate(&Mapper::ir_dl(udm, tape_e.clone(), shortlist), &cases, &ks);
            (dl, irdl)
        })
    });
    let batched_e: std::sync::Arc<dyn Embedder> =
        std::sync::Arc::new(BatchEncoder::new(encoder.clone(), vocab.clone()));
    let ((batched_dl, batched_irdl), eval_batched_ms) = nassim_exec::with_threads(1, || {
        time_ms(|| {
            let dl = evaluate(&Mapper::dl(udm, batched_e.clone()), &cases, &ks);
            let irdl = evaluate(&Mapper::ir_dl(udm, batched_e.clone(), shortlist), &cases, &ks);
            (dl, irdl)
        })
    });
    let mapper = MapperTimings {
        eval_tape_ms,
        eval_batched_ms,
        speedup: eval_tape_ms / eval_batched_ms.max(1e-9),
        recall_at_1_tape: tape_dl.recall.get(&1).copied().unwrap_or(0.0),
        recall_at_1_batched: batched_dl.recall.get(&1).copied().unwrap_or(0.0),
        mrr_tape: tape_dl.mrr,
        mrr_batched: batched_dl.mrr,
        reports_match: reports_match(&tape_dl, &batched_dl)
            && reports_match(&tape_irdl, &batched_irdl),
    };
    println!(
        "  evaluation: tape {eval_tape_ms:.1} ms | batched {eval_batched_ms:.1} ms => {:.2}x, reports_match={}",
        mapper.speedup, mapper.reports_match
    );

    report.gate(&gates::BITWISE_MISMATCHES, parity.bitwise_mismatches);
    report.gate(&gates::REPORTS_MATCH, mapper.reports_match);
    report.gate(&gates::BATCHED_SPEEDUP, embedding.speedup_batched_vs_tape);
    report.gate(&gates::PARALLEL_EMBED_SPEEDUP, embedding.speedup_parallel_vs_serial);
    report.finish(&InferenceBench {
        seed: SEED,
        smoke,
        texts: texts.len(),
        unique_texts: unique.len(),
        eval_cases: cases.len(),
        udm_leaves: leaves.len(),
        serial_threads: 1,
        parallel_threads: workers,
        embedding,
        mapper,
        parity,
        memo: MemoReport {
            hits: memo_stats.hits,
            misses: memo_stats.misses,
            entries: memo_stats.entries,
        },
    })
}
