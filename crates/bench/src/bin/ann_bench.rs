//! Sub-linear retrieval benchmark — the ROADMAP item 3 trade-off pinned
//! as a versioned artifact.
//!
//! Sweeps synthetic leaf-corpus sizes (1k → 100k full scale; a trimmed
//! sweep under `--smoke` for CI), and at each scale
//! measures single-thread query throughput and recall@10 of the three
//! [`RetrievalMode`]s against the exact sharded scan:
//!
//! * **exact** — the pre-existing `dl_scan` (baseline; recall 1.0 by
//!   definition);
//! * **quantized** — int8 full scan + exact f32 rescore;
//! * **ann** — IVF probe (auto probe count) + quantized cluster scan +
//!   exact rescore.
//!
//! Writes `BENCH_ann.json` and exits non-zero if (a) at any sweep point
//! exact recall is not 1, quantized or ANN recall@10 falls under 0.90,
//! or either mode reports no throughput, or (b) — on multi-core hardware,
//! full (non-smoke) mode — the ANN mode misses its ≥10× exact-scan QPS
//! floor or its recall@10 ≥ 0.95 floor at the [`GATE_LEAVES`]-leaf point.
//! Below the hardware bar (or in smoke mode, whose sweep stops short of
//! the gate point) those two gates are report-only. Every threshold is in
//! [`nassim_bench::gates::ann`].

use nassim_bench::fixtures::HashEmbedder;
use nassim_bench::gates::ann::{self as gates, GATE_LEAVES};
use nassim_bench::report::{time_ms, Report};
use nassim_datasets::words::{ATTR_WORDS, FEATURE_WORDS, OBJECT_WORDS};
use nassim_datasets::{catalog::Catalog, udmgen};
use nassim_mapper::context::Context;
use nassim_mapper::models::Mapper;
use nassim_mapper::RetrievalMode;

/// Leaf-count sweep in full mode. The 100k point is the gate point the
/// acceptance criteria pin; 1k and 10k chart the trajectory.
const FULL_SWEEP: [usize; 3] = [1_000, 10_000, 100_000];
/// Trimmed sweep for CI smoke runs.
const SMOKE_SWEEP: [usize; 2] = [1_000, 5_000];
/// Queries per scale: enough to average out per-query variance while
/// keeping the full sweep under a minute of query time.
const QUERY_COUNT: usize = 64;
/// Fixed seed: the sweep is a pure function of this artifact.
const SEED: u64 = 77;

/// Queries drawn from the synthetic generator's own vocabulary, so the
/// rankings are non-trivial at every scale.
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

/// recall@k overlap of `got` against the exact ranking `want`.
fn recall(got: &[(nassim_corpus::UdmNodeId, f32)], want: &[(nassim_corpus::UdmNodeId, f32)]) -> f64 {
    if want.is_empty() {
        return 1.0;
    }
    let hits = got
        .iter()
        .filter(|(id, _)| want.iter().any(|(w, _)| w == id))
        .count();
    hits as f64 / want.len() as f64
}

#[derive(serde::Serialize)]
struct ModeResult {
    qps: f64,
    /// Mean recall@10 against the exact scan over the query set.
    recall_at_10: f64,
    speedup_vs_exact: f64,
}

#[derive(serde::Serialize)]
struct ScalePoint {
    leaves: usize,
    index_build_ms: f64,
    nlist: usize,
    probes: usize,
    exact: ModeResult,
    quantized: ModeResult,
    ann: ModeResult,
}

#[derive(serde::Serialize)]
struct AnnBench {
    seed: u64,
    smoke: bool,
    queries: usize,
    k: usize,
    sweep: Vec<ScalePoint>,
}

/// Time `recommend_prepared` over the prepared query set; returns QPS
/// and the rankings (for the recall comparison).
fn measure(
    mapper: &Mapper,
    prepared: &[nassim_mapper::PreparedQuery],
    k: usize,
) -> (f64, Vec<Vec<(nassim_corpus::UdmNodeId, f32)>>) {
    // One untimed warmup pass, then the timed pass.
    for q in prepared {
        let _ = mapper.recommend_prepared(q, k);
    }
    let (rankings, ms) = time_ms(|| {
        prepared
            .iter()
            .map(|q| mapper.recommend_prepared(q, k))
            .collect::<Vec<_>>()
    });
    (prepared.len() as f64 / (ms / 1e3).max(1e-9), rankings)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report = Report::new("ann");
    let smoke = report.smoke();
    let sweep: Vec<usize> = if smoke {
        SMOKE_SWEEP.to_vec()
    } else {
        FULL_SWEEP.to_vec()
    };
    let k = 10usize;
    let hw = report.hardware_threads();
    let catalog = Catalog::base();
    let queries = queries();
    let query_refs: Vec<&Context> = queries.iter().collect();
    println!(
        "ANN bench: sweep {sweep:?} leaves, {} queries, k={k}, smoke={smoke}, {hw} hw threads",
        queries.len()
    );

    let mut points = Vec::new();
    for &n in &sweep {
        let data = udmgen::generate(
            &catalog,
            &udmgen::UdmGenOptions {
                seed: SEED,
                paraphrase_strength: 0.6,
                distractors: 0,
                synthetic_leaves: n,
            },
        );
        let udm = &data.udm;
        let embedder: std::sync::Arc<dyn nassim_mapper::Embedder> =
            std::sync::Arc::new(HashEmbedder(64));
        let exact = Mapper::dl(udm, embedder);
        let leaves = exact.candidate_count();
        let prepared = exact.prepare_queries(&query_refs);

        // Build the sub-linear index once (parallel construction); both
        // sub-linear modes share it through the mapper clone.
        let (quant_mapper, build_ms) =
            time_ms(|| exact.with_retrieval_mode(RetrievalMode::Quantized));
        let ann_mapper = quant_mapper.with_retrieval_mode(RetrievalMode::Ann { probes: 0 });
        let stats = ann_mapper.retrieval_stats();

        // Single-thread query throughput: the serving-latency view.
        let ((exact_qps, exact_rankings), (quant_qps, quant_rankings), (ann_qps, ann_rankings)) =
            nassim_exec::with_threads(1, || {
                (
                    measure(&exact, &prepared, k),
                    measure(&quant_mapper, &prepared, k),
                    measure(&ann_mapper, &prepared, k),
                )
            });

        let mean_recall = |rankings: &[Vec<(nassim_corpus::UdmNodeId, f32)>]| {
            rankings
                .iter()
                .zip(&exact_rankings)
                .map(|(got, want)| recall(got, want))
                .sum::<f64>()
                / rankings.len() as f64
        };
        let quant_recall = mean_recall(&quant_rankings);
        let ann_recall = mean_recall(&ann_rankings);

        println!(
            "  {leaves:>7} leaves: exact {exact_qps:>8.1} qps | quantized {quant_qps:>8.1} qps ({:.2}x, r@10 {quant_recall:.3}) | ann {ann_qps:>8.1} qps ({:.2}x, r@10 {ann_recall:.3}) | build {build_ms:.1} ms, nlist {}, probes {}",
            quant_qps / exact_qps.max(1e-9),
            ann_qps / exact_qps.max(1e-9),
            stats.nlist,
            stats.probes,
        );

        points.push(ScalePoint {
            leaves,
            index_build_ms: build_ms,
            nlist: stats.nlist,
            probes: stats.probes,
            exact: ModeResult {
                qps: exact_qps,
                recall_at_10: 1.0,
                speedup_vs_exact: 1.0,
            },
            quantized: ModeResult {
                qps: quant_qps,
                recall_at_10: quant_recall,
                speedup_vs_exact: quant_qps / exact_qps.max(1e-9),
            },
            ann: ModeResult {
                qps: ann_qps,
                recall_at_10: ann_recall,
                speedup_vs_exact: ann_qps / exact_qps.max(1e-9),
            },
        });
    }

    report.gate(&gates::SWEEP_POINTS, points.len());
    for p in &points {
        report.gate_at(&gates::EXACT_RECALL, p.leaves, p.exact.recall_at_10);
        report.gate_at(&gates::QUANTIZED_RECALL, p.leaves, p.quantized.recall_at_10);
        report.gate_at(&gates::QUANTIZED_QPS, p.leaves, p.quantized.qps);
        report.gate_at(&gates::ANN_RECALL, p.leaves, p.ann.recall_at_10);
        report.gate_at(&gates::ANN_QPS, p.leaves, p.ann.qps);
    }
    match points.iter().find(|p| p.leaves >= GATE_LEAVES) {
        Some(p) => {
            report.gate_at(&gates::GATE_SPEEDUP, GATE_LEAVES, p.ann.speedup_vs_exact);
            report.gate_at(&gates::GATE_RECALL, GATE_LEAVES, p.ann.recall_at_10);
        }
        None => {
            report.unmeasured_at(&gates::GATE_SPEEDUP, GATE_LEAVES);
            report.unmeasured_at(&gates::GATE_RECALL, GATE_LEAVES);
        }
    }
    report.finish(&AnnBench {
        seed: SEED,
        smoke,
        queries: queries.len(),
        k,
        sweep: points,
    })
}
