//! Experiment fixtures: one place that builds manuals, assimilates them,
//! generates config corpora, trains the model zoo and runs the mapping
//! evaluation — so every table binary agrees on the setup.

use nassim::diag::NassimError;
use nassim::modelzoo::{ModelZoo, PretrainOptions};
use nassim::pipeline::{assimilate, Assimilation};
use nassim_corpus::hash::fnv1a_str;
use nassim_datasets::catalog::Catalog;
use nassim_datasets::configgen::{self, ConfigCorpus, ConfigGenOptions};
use nassim_datasets::manualgen::{self, GenOptions, Manual};
use nassim_datasets::style::{self, VendorStyle};
use nassim_datasets::udmgen::{self, sample_annotations, UdmDataset, UdmGenOptions};
use nassim_mapper::eval::{evaluate, resolve_cases, EvalCase, EvalReport};
use nassim_mapper::finetune::FinetuneOptions;
use nassim_mapper::models::{Embedder, EncoderEmbedder, Mapper};
use nassim_parser::parser_for;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Master seed all fixtures derive from; fixed so tables reproduce.
pub const SEED: u64 = 20220822; // SIGCOMM'22 opening day

/// Paper-relative scale of each vendor's manual (Table 4's ordering:
/// cirrus small, helix/norsk large, h4c mid). The absolute numbers are
/// scaled down ~10× from the paper so `cargo run --release` finishes in
/// minutes; override with the `NASSIM_SCALE` env var (a multiplier).
pub fn vendor_scale(vendor: &str) -> usize {
    let base = match vendor {
        "cirrus" => 20,
        "helix" => 1200,
        "norsk" => 1400,
        "h4c" => 70,
        _ => 0,
    };
    let mult: f64 = std::env::var("NASSIM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    (base as f64 * mult) as usize
}

/// One vendor's full construction-phase run.
pub struct VendorRun {
    pub style: VendorStyle,
    pub manual: Manual,
    /// Assimilation of the manual as published (with its defects).
    pub assimilation: Assimilation,
    /// Assimilation after "expert correction": the Validator's findings
    /// are resolved (here: by regenerating the defective pages clean, as
    /// the experts would fix them against the real device). §7.2 validates
    /// config files against this corrected VDM.
    pub corrected: Assimilation,
    pub config_corpus: Option<ConfigCorpus>,
}

/// Build a vendor's manual at its Table-4 scale, assimilate it, and (for
/// helix/norsk, as in §7.2) generate its config-file corpus.
pub fn construct_vendor(vendor: &str, extra: usize) -> Result<VendorRun, NassimError> {
    let catalog = Catalog::with_scale(extra);
    let style = style::vendor(vendor)?;
    let manual = manualgen::generate(
        &style,
        &catalog,
        &GenOptions {
            seed: SEED ^ fnv1a_str(vendor),
            scale_extra: extra,
            syntax_error_rate: 0.004,
            ambiguity_rate: 0.03,
            examples_per_page: 1,
        },
    );
    let parser = parser_for(vendor)?;
    // The published-manual and corrected-manual pipelines are independent;
    // run them as a two-way split.
    let (assimilation, corrected) = nassim_exec::join2(
        || {
            assimilate(
                parser.as_ref(),
                manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
            )
        },
        || {
            let clean_manual = manualgen::generate(
                &style,
                &catalog,
                &GenOptions {
                    seed: SEED ^ fnv1a_str(vendor),
                    scale_extra: extra,
                    syntax_error_rate: 0.0,
                    ambiguity_rate: 0.0,
                    examples_per_page: 1,
                },
            );
            assimilate(
                parser.as_ref(),
                clean_manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
            )
        },
    );
    // The paper has config corpora only for its two DC vendors.
    let config_corpus = if vendor == "helix" || vendor == "norsk" {
        let files = if vendor == "helix" { 20 } else { 41 };
        Some(configgen::generate(
            &style,
            &catalog,
            &ConfigGenOptions {
                seed: SEED ^ fnv1a_str(vendor) ^ 0xC0F1,
                files,
                active_fraction: 0.12,
                stanzas_per_file: 24,
            },
        ))
    } else {
        None
    };
    Ok(VendorRun {
        style,
        manual,
        assimilation: assimilation?,
        corrected: corrected?,
        config_corpus,
    })
}

/// Everything Table 5 / Table 6 need: per-setting, per-model reports.
pub struct MappingOutcome {
    /// setting name ("helix-UDM", "norsk-UDM") → model name → report.
    pub reports: BTreeMap<String, BTreeMap<String, EvalReport>>,
    /// Cases per setting (for the record).
    pub case_counts: BTreeMap<String, usize>,
}

/// The model order of Table 5.
pub const MODEL_ORDER: [&str; 7] = [
    "IR",
    "SimCSE",
    "SBERT",
    "IR+SimCSE",
    "IR+SBERT",
    "NetBERT",
    "IR+NetBERT",
];

/// Run the full Table-5 mapping experiment:
///
/// * base-catalog manuals for helix and norsk → VDMs;
/// * UDM + full alignment ground truth; helix keeps its full annotation
///   set (the paper's 381-pair rich side), norsk a scarce subset (110);
/// * encoders pre-trained on the generic corpus; NetBERT fine-tuned
///   **cross-vendor** (tuned on norsk annotations → evaluated on helix,
///   and vice versa), exactly as §7.3 describes;
/// * every model evaluated at the requested `ks`.
pub fn mapping_experiment(ks: &[usize]) -> Result<MappingOutcome, NassimError> {
    let catalog = Catalog::base();
    let udm_data: UdmDataset = udmgen::generate(
        &catalog,
        &UdmGenOptions {
            seed: SEED,
            paraphrase_strength: 0.85,
            distractors: 150,
            synthetic_leaves: 0,
        },
    );
    let udm = &udm_data.udm;

    // Construct both VDMs from their manuals (clean manuals: the mapping
    // phase consumes *validated* VDMs). The two vendors are independent —
    // generate and assimilate them concurrently.
    let build_vdm = |vendor: &str| -> Result<_, NassimError> {
        let style = style::vendor(vendor)?;
        let manual = manualgen::generate(
            &style,
            &catalog,
            &GenOptions {
                seed: SEED ^ fnv1a_str(vendor),
                syntax_error_rate: 0.0,
                ambiguity_rate: 0.0,
                ..Default::default()
            },
        );
        let parser = parser_for(vendor)?;
        let a = assimilate(
            parser.as_ref(),
            manual.pages.iter().map(|p| (p.url.as_str(), p.html.as_str())),
        )?;
        Ok(a.build.vdm)
    };
    let (helix_vdm, norsk_vdm) =
        nassim_exec::join2(|| build_vdm("helix"), || build_vdm("norsk"));
    let mut vdms = BTreeMap::new();
    vdms.insert("helix", helix_vdm?);
    vdms.insert("norsk", norsk_vdm?);

    // Annotations per vendor: (command_key, vendor token, udm path).
    let annotate = |vendor: &str,
                    keep: Option<usize>|
     -> Result<Vec<(String, String, String)>, NassimError> {
        let style = style::vendor(vendor)?;
        let full: Vec<_> = udm_data
            .alignment
            .iter()
            .map(|a| {
                (
                    a.command_key.clone(),
                    style.param(&a.canonical_param),
                    a.udm_path.clone(),
                )
            })
            .collect();
        Ok(match keep {
            Some(k) => {
                let entries: Vec<_> = udm_data.alignment.clone();
                let sampled = sample_annotations(&entries, k, SEED ^ fnv1a_str(vendor));
                sampled
                    .iter()
                    .map(|a| {
                        (
                            a.command_key.clone(),
                            style.param(&a.canonical_param),
                            a.udm_path.clone(),
                        )
                    })
                    .collect()
            }
            None => full,
        })
    };
    // helix: rich annotation set; norsk: scarce (paper: 381 vs 110 ⇒ keep
    // the same ~3.5:1 ratio).
    let helix_ann = annotate("helix", None)?;
    let norsk_keep = (helix_ann.len() as f64 / 3.5).round() as usize;
    let norsk_ann = annotate("norsk", Some(norsk_keep))?;

    let helix_cases = resolve_cases(&vdms["helix"], udm, &helix_ann);
    let norsk_cases = resolve_cases(&vdms["norsk"], udm, &norsk_ann);

    // Vocabulary domain texts: every context string we will encode.
    let mut domain_texts: Vec<String> = Vec::new();
    for vdm in vdms.values() {
        for r in nassim_mapper::context::vdm_param_refs(vdm) {
            domain_texts.push(nassim_mapper::context::vdm_param_context(vdm, &r).joined());
        }
    }
    for leaf in udm.leaves() {
        domain_texts.push(nassim_mapper::context::udm_leaf_context(udm, leaf).joined());
    }
    let zoo = ModelZoo::pretrain(
        &PretrainOptions {
            seed: SEED,
            ..Default::default()
        },
        &domain_texts,
    );

    // Cross-vendor NetBERT: fine-tune on the *other* vendor's labels.
    // Two fine-tuning epochs: the paper's "1 epoch is enough" holds for a
    // 110M-parameter model on 381 pairs; the 100k-parameter substitute
    // needs one more pass before it over-fits.
    let ft = FinetuneOptions {
        seed: SEED,
        epochs: 2,
        ..Default::default()
    };
    let netbert_for_helix = zoo.netbert(&norsk_cases, udm, &ft);
    let netbert_for_norsk = zoo.netbert(&helix_cases, udm, &ft);

    let mut reports: BTreeMap<String, BTreeMap<String, EvalReport>> = BTreeMap::new();
    let mut case_counts = BTreeMap::new();
    for (setting, cases, netbert) in [
        ("helix-UDM", &helix_cases, &netbert_for_helix),
        ("norsk-UDM", &norsk_cases, &netbert_for_norsk),
    ] {
        case_counts.insert(setting.to_string(), cases.len());
        let sbert_e: Arc<dyn Embedder> = Arc::new(EncoderEmbedder {
            encoder: zoo.sbert.clone(),
            vocab: zoo.vocab.clone(),
        });
        let simcse_e: Arc<dyn Embedder> = Arc::new(EncoderEmbedder {
            encoder: zoo.simcse.clone(),
            vocab: zoo.vocab.clone(),
        });
        let netbert_e: Arc<dyn Embedder> = Arc::new(EncoderEmbedder {
            encoder: netbert.clone(),
            vocab: zoo.vocab.clone(),
        });
        let entry = reports.entry(setting.to_string()).or_default();
        run_model(entry, "IR", Mapper::ir(udm), cases, ks);
        run_model(entry, "SimCSE", Mapper::dl(udm, simcse_e.clone()), cases, ks);
        run_model(entry, "SBERT", Mapper::dl(udm, sbert_e.clone()), cases, ks);
        run_model(entry, "IR+SimCSE", Mapper::ir_dl(udm, simcse_e, 50), cases, ks);
        run_model(entry, "IR+SBERT", Mapper::ir_dl(udm, sbert_e, 50), cases, ks);
        run_model(entry, "NetBERT", Mapper::dl(udm, netbert_e.clone()), cases, ks);
        run_model(entry, "IR+NetBERT", Mapper::ir_dl(udm, netbert_e, 50), cases, ks);
    }
    Ok(MappingOutcome {
        reports,
        case_counts,
    })
}

fn run_model(
    entry: &mut BTreeMap<String, EvalReport>,
    name: &str,
    mapper: Mapper,
    cases: &[EvalCase],
    ks: &[usize],
) {
    entry.insert(name.to_string(), evaluate(&mapper, cases, ks));
}

/// Tiny deterministic embedder used by Criterion benches that should not
/// pay encoder cost.
pub struct HashEmbedder(pub usize);

impl Embedder for HashEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.0];
        for word in text.split_whitespace() {
            let mut h: u32 = 2166136261;
            for b in word.bytes() {
                h ^= b as u32;
                h = h.wrapping_mul(16777619);
            }
            v[(h as usize) % self.0] += 1.0;
        }
        v
    }
}
